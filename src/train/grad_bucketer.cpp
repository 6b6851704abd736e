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
                           comm::Communicator& comm, size_t bucket_bytes)
    : comm_(comm) {
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
  std::span<float> logical;
  if (bucket.direct) {
    // Zero-copy: pre-scale the gradient in place (the cache-warm moment,
    // right after backward produced it); its own storage is then
    // ring-reduced with no pack or unpack pass at all.
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
  bucket.request = comm_.all_reduce_sum_async(logical, unpack_scale_);
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
  if (first_error) std::rethrow_exception(first_error);
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
  armed_ = false;
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
