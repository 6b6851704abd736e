#include "train/grad_bucketer.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <span>

#include "common/check.hpp"
#include "common/env.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dmis::train {
namespace {

obs::Histogram& bucket_bytes_histogram() {
  static obs::Histogram& h = obs::MetricsRegistry::instance().histogram(
      "comm.allreduce.bucket_bytes",
      {4096.0, 16384.0, 65536.0, 262144.0, 1048576.0, 4194304.0,
       16777216.0});
  return h;
}

obs::Counter& buckets_fired_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("comm.allreduce.buckets");
  return c;
}

}  // namespace

size_t GradBucketer::effective_bucket_bytes(size_t configured) {
  if (const auto v = env_int("DMIS_BUCKET_BYTES", 1)) {
    return static_cast<size_t>(*v);
  }
  DMIS_CHECK(configured > 0, "MirroredOptions::bucket_bytes must be > 0");
  return configured;
}

GradBucketer::GradBucketer(std::vector<nn::Param> params,
                           comm::Communicator& comm, size_t bucket_bytes,
                           comm::CompressOptions compress)
    : comm_(comm),
      compress_(comm::CompressOptions::resolved(compress)),
      compressor_(comm::make_compressor(compress_, comm.size())) {
  DMIS_CHECK(bucket_bytes > 0, "bucket_bytes must be > 0");
  slots_.reserve(params.size());
  for (nn::Param& p : params) {
    DMIS_CHECK(p.grad != nullptr,
               "parameter '" << p.name << "' has no gradient tensor");
    slots_.push_back(Slot{p, 0, 0, false});
  }
  // Reverse registration order = the order backward produces gradients,
  // so the first buckets fill (and fire) first while earlier layers are
  // still back-propagating. Tensors at/above the direct threshold get an
  // in-place bucket of their own; smaller ones pack into flat buckets.
  // The open packed bucket persists across direct tensors (a fresh one
  // per interleaved bias would defeat fusion entirely), so buckets are
  // finally ordered by the walk position of their *last* slot — the
  // point at which each becomes launchable.
  const size_t direct_bytes = std::min(kDirectBytes, bucket_bytes);
  std::vector<size_t> last_pos(0);  // parallel to buckets_: completion pos
  size_t cur_bytes = 0;
  size_t open = SIZE_MAX;  // index of the open packed bucket, if any
  size_t pos = 0;
  for (size_t i = slots_.size(); i-- > 0; ++pos) {
    Slot& slot = slots_[i];
    const size_t bytes =
        static_cast<size_t>(slot.param.grad->numel()) * sizeof(float);
    if (bytes >= direct_bytes) {
      Bucket& bucket = buckets_.emplace_back();
      bucket.direct = true;
      bucket.slots.push_back(i);
      slot.bucket = buckets_.size() - 1;
      last_pos.push_back(pos);
    } else {
      if (open == SIZE_MAX || cur_bytes + bytes > bucket_bytes) {
        buckets_.emplace_back();
        last_pos.push_back(0);
        open = buckets_.size() - 1;
        cur_bytes = 0;
      }
      Bucket& bucket = buckets_[open];
      slot.bucket = open;
      slot.offset = bucket.buf.size();
      bucket.buf.resize(bucket.buf.size() +
                        static_cast<size_t>(slot.param.grad->numel()));
      bucket.slots.push_back(i);
      cur_bytes += bytes;
      last_pos[open] = pos;
    }
    const bool inserted =
        slot_by_grad_.emplace(slot.param.grad, i).second;
    DMIS_CHECK(inserted, "duplicate gradient tensor for parameter '"
                             << slot.param.name << "'");
  }
  // Stable-sort buckets into completion order and renumber the slots.
  std::vector<size_t> order(buckets_.size());
  for (size_t b = 0; b < order.size(); ++b) order[b] = b;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return last_pos[a] < last_pos[b];
  });
  std::vector<Bucket> sorted;
  sorted.reserve(buckets_.size());
  for (const size_t b : order) sorted.push_back(std::move(buckets_[b]));
  buckets_ = std::move(sorted);
  for (size_t b = 0; b < buckets_.size(); ++b) {
    for (const size_t i : buckets_[b].slots) slots_[i].bucket = b;
  }
  if (compressor_ != nullptr) {
    for (Bucket& bucket : buckets_) {
      const size_t n = logical_len(bucket);
      bucket.wire.resize(compressor_->wire_len(n));
      if (compressor_->error_feedback()) bucket.residual.assign(n, 0.0F);
    }
  }
}

size_t GradBucketer::logical_len(const Bucket& bucket) const {
  if (bucket.direct) {
    return static_cast<size_t>(
        slots_[bucket.slots.front()].param.grad->numel());
  }
  return bucket.buf.size();
}

void GradBucketer::begin_step(float pack_scale, float unpack_scale) {
  DMIS_ASSERT(!armed_, "begin_step() while a step is already in flight");
  for (Slot& slot : slots_) slot.ready = false;
  for (Bucket& bucket : buckets_) {
    bucket.ready = 0;
    bucket.fired = false;
    bucket.request = comm::AsyncRequest{};
  }
  pack_scale_ = pack_scale;
  unpack_scale_ = unpack_scale;
  fired_ = 0;
  first_fire_us_ = -1;
  // Error-feedback residuals mutate as buckets fire (this step's grads
  // accumulate in, selected entries zero out). If the step aborts after
  // some buckets fired, those entries were never delivered — without a
  // rollback the retried step would double-count unsent mass and lose
  // the sent-but-undelivered mass. Snapshot now; abandon() restores.
  if (compressor_ != nullptr && compressor_->error_feedback()) {
    residual_snapshot_ = export_residuals();
  }
  armed_ = true;
}

void GradBucketer::on_grad_ready(const nn::Param& p) {
  if (!armed_) return;
  const auto it = slot_by_grad_.find(p.grad);
  DMIS_ASSERT(it != slot_by_grad_.end(),
              "grad_ready for unknown parameter '" << p.name << "'");
  Slot& slot = slots_[it->second];
  DMIS_ASSERT(!slot.ready,
              "gradient reported ready twice for '" << p.name << "'");
  slot.ready = true;
  ++buckets_[slot.bucket].ready;
  fire_ready_prefix();
}

// Launches complete buckets, but only in layout order: a bucket whose
// gradients arrived out of order (weight before bias within a node)
// holds until its predecessors fire, so every rank submits the same
// collective sequence — the SPMD requirement of the comm worker queues.
void GradBucketer::fire_ready_prefix() {
  while (fired_ < buckets_.size()) {
    Bucket& bucket = buckets_[fired_];
    if (bucket.ready < bucket.slots.size()) return;
    fire(bucket);
  }
}

void GradBucketer::fire(Bucket& bucket) {
  DMIS_ASSERT(!bucket.fired, "bucket launched twice in one step");
  // fp16 fast path: the codec IS the pack pass. Each tensor encodes
  // straight into the wire with pack_scale folded into the conversion —
  // the same reads the memcpy pack would issue, half the writes, and
  // the collective then moves half the bytes. No staging through buf,
  // no pre-scale pass for direct buckets.
  if (compress_.mode == comm::CompressMode::kFp16) {
    const size_t n = logical_len(bucket);
    const size_t bytes = n * sizeof(float);
    const size_t wire_bytes = bucket.wire.size() * sizeof(float);
    auto* halves = reinterpret_cast<uint16_t*>(bucket.wire.data());
    {
      DMIS_TRACE_SPAN("train.grad_sync.compress",
                      {{"bytes_in", static_cast<int64_t>(bytes)},
                       {"bytes_out", static_cast<int64_t>(wire_bytes)}});
      for (const size_t i : bucket.slots) {
        const Slot& slot = slots_[i];
        comm::fp16_pack_scale(slot.param.grad->data(),
                              static_cast<size_t>(slot.param.grad->numel()),
                              halves + slot.offset, pack_scale_);
      }
    }
    comm::note_compression(bytes, wire_bytes);
    bucket.request = comm_.all_reduce_sum_async(
        std::span<float>(bucket.wire.data(), bucket.wire.size()),
        unpack_scale_, comm::WireFormat::kFp16);
    bucket_bytes_histogram().observe(static_cast<double>(bytes));
    buckets_fired_counter().add(1);
    if (first_fire_us_ < 0) first_fire_us_ = obs::Tracer::now_us();
    bucket.fired = true;
    ++fired_;
    return;
  }
  std::span<float> logical;
  if (bucket.direct) {
    // Zero-copy: pre-scale the gradient in place (the cache-warm moment,
    // right after backward produced it); uncompressed, its own storage
    // is then ring-reduced with no pack or unpack pass at all.
    NDArray& grad = *slots_[bucket.slots.front()].param.grad;
    if (pack_scale_ != 1.0F) grad.scale_(pack_scale_);
    logical = grad.span();
  } else {
    {
      DMIS_TRACE_SPAN("train.grad_sync.pack",
                      {{"bytes", static_cast<int64_t>(bucket.buf.size() *
                                                      sizeof(float))}});
      for (const size_t i : bucket.slots) {
        const Slot& slot = slots_[i];
        const float* src = slot.param.grad->data();
        float* dst = bucket.buf.data() + slot.offset;
        const int64_t n = slot.param.grad->numel();
        if (pack_scale_ == 1.0F) {
          std::memcpy(dst, src, static_cast<size_t>(n) * sizeof(float));
        } else {
          for (int64_t k = 0; k < n; ++k) dst[k] = src[k] * pack_scale_;
        }
      }
    }
    logical = std::span<float>(bucket.buf.data(), bucket.buf.size());
  }
  const size_t bytes = logical.size() * sizeof(float);
  if (compressor_ == nullptr) {
    bucket.request = comm_.all_reduce_sum_async(logical, unpack_scale_);
  } else {
    // Encode the pack-scaled fp32 bucket into the wire buffer and
    // reduce *that*; the collective runs the codec's wire format and
    // applies only the scale the codec lets ride the schedule.
    const size_t wire_bytes = bucket.wire.size() * sizeof(float);
    {
      DMIS_TRACE_SPAN("train.grad_sync.compress",
                      {{"bytes_in", static_cast<int64_t>(bytes)},
                       {"bytes_out", static_cast<int64_t>(wire_bytes)}});
      compressor_->encode(logical, std::span<float>(bucket.wire),
                          comm_.rank(), std::span<float>(bucket.residual));
    }
    comm::note_compression(bytes, wire_bytes);
    bucket.request = comm_.all_reduce_sum_async(
        std::span<float>(bucket.wire.data(), bucket.wire.size()),
        compressor_->wire_scale(unpack_scale_),
        compressor_->wire_format());
  }
  bucket_bytes_histogram().observe(static_cast<double>(bytes));
  buckets_fired_counter().add(1);
  if (first_fire_us_ < 0) first_fire_us_ = obs::Tracer::now_us();
  bucket.fired = true;
  ++fired_;
}

void GradBucketer::flush() {
  DMIS_ASSERT(armed_, "flush() without begin_step()");
  for (Bucket& bucket : buckets_) bucket.ready = bucket.slots.size();
  fire_ready_prefix();
}

void GradBucketer::wait_all() {
  DMIS_ASSERT(armed_, "wait_all() without begin_step()");
  DMIS_TRACE_SPAN("train.grad_sync.wait");
  std::exception_ptr first_error;
  for (Bucket& bucket : buckets_) {
    DMIS_ASSERT(bucket.fired, "wait_all() before flush()");
    try {
      bucket.request.wait();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
      continue;
    }
    if (first_error) continue;
    if (compress_.mode == comm::CompressMode::kFp16) {
      // Fused unpack: decode each tensor straight out of the reduced
      // wire (unpack_scale already rode the schedule) — the same writes
      // the memcpy unpack would issue, half the reads.
      const auto* halves =
          reinterpret_cast<const uint16_t*>(bucket.wire.data());
      DMIS_TRACE_SPAN("train.grad_sync.decompress",
                      {{"bytes", static_cast<int64_t>(logical_len(bucket) *
                                                      sizeof(float))}});
      for (const size_t i : bucket.slots) {
        const Slot& slot = slots_[i];
        comm::fp16_unpack(halves + slot.offset,
                          static_cast<size_t>(slot.param.grad->numel()),
                          slot.param.grad->data());
      }
      continue;
    }
    if (compressor_ != nullptr) {
      // Decode the reduced wire back into the bucket's fp32 storage
      // (the gradient itself for direct buckets, buf for packed ones).
      std::span<float> logical =
          bucket.direct
              ? slots_[bucket.slots.front()].param.grad->span()
              : std::span<float>(bucket.buf.data(), bucket.buf.size());
      DMIS_TRACE_SPAN("train.grad_sync.decompress",
                      {{"bytes", static_cast<int64_t>(logical.size() *
                                                      sizeof(float))}});
      compressor_->decode(std::span<const float>(bucket.wire), logical,
                          unpack_scale_);
    }
    if (bucket.direct) continue;  // nothing to copy out
    // unpack_scale_ was applied by the ring itself; plain copy-out.
    for (const size_t i : bucket.slots) {
      const Slot& slot = slots_[i];
      std::memcpy(slot.param.grad->data(), bucket.buf.data() + slot.offset,
                  static_cast<size_t>(slot.param.grad->numel()) *
                      sizeof(float));
    }
  }
  armed_ = false;
  if (first_error) {
    // The step failed and will be retried (or rolled back to the
    // checkpoint); its error-feedback mutations — including those of
    // buckets that reduced cleanly before the failure — must not leak
    // into the retry. abandon() can't do this: we just disarmed.
    if (!residual_snapshot_.empty()) import_residuals(residual_snapshot_);
    std::rethrow_exception(first_error);
  }
}

void GradBucketer::abandon() {
  if (!armed_) return;
  for (Bucket& bucket : buckets_) {
    if (!bucket.fired || !bucket.request.valid()) continue;
    try {
      bucket.request.wait();
    } catch (...) {
      // Expected: the group is poisoned. The wait is only here so the
      // comm worker has let go of the buffers before the caller frees
      // or rebuilds them.
    }
  }
  // Roll the error-feedback state back to what it was before the
  // abandoned step fired anything: the step will be retried (or the
  // checkpoint restored), so its residual mutations must not survive.
  if (!residual_snapshot_.empty()) import_residuals(residual_snapshot_);
  armed_ = false;
}

GradBucketer::ResidualState GradBucketer::export_residuals() const {
  ResidualState state;
  state.reserve(buckets_.size());
  for (const Bucket& bucket : buckets_) state.push_back(bucket.residual);
  return state;
}

void GradBucketer::import_residuals(const ResidualState& state) {
  DMIS_CHECK(state.size() == buckets_.size(),
             "residual state has " << state.size() << " buckets, layout has "
                                   << buckets_.size());
  for (size_t b = 0; b < buckets_.size(); ++b) {
    Bucket& bucket = buckets_[b];
    if (bucket.residual.empty() || state[b].empty()) continue;
    DMIS_CHECK(state[b].size() == bucket.residual.size(),
               "residual size mismatch in bucket "
                   << b << ": " << state[b].size() << " vs "
                   << bucket.residual.size());
    bucket.residual = state[b];
  }
}

size_t GradBucketer::num_direct() const {
  size_t n = 0;
  for (const Bucket& bucket : buckets_) n += bucket.direct ? 1 : 0;
  return n;
}

std::vector<std::vector<std::string>> GradBucketer::layout() const {
  std::vector<std::vector<std::string>> out(buckets_.size());
  for (size_t b = 0; b < buckets_.size(); ++b) {
    for (const size_t i : buckets_[b].slots) {
      out[b].push_back(slots_[i].param.name);
    }
  }
  return out;
}

}  // namespace dmis::train
