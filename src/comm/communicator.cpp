#include "comm/communicator.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "common/env.hpp"
#include "common/fault_injector.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/thread_pool.hpp"

namespace dmis::comm {
namespace {

// Failure points sit at collective *entry*, before the rank touches the
// rendezvous barrier — mirroring a NIC/NCCL fault detected when the
// operation is issued. Like the real thing, a rank that dies mid-group
// leaves its peers blocked (until a deadline fires, with
// DMIS_COMM_TIMEOUT_MS set), so lockstep chaos tests arm these points so
// that every rank of the group fails the same call (e.g. probability
// 1.0), while rank-scoped points (`comm.all_reduce.r<k>`) kill exactly
// one rank to exercise timeout/abort propagation. On the async path the
// point fires inside the comm worker, and the error surfaces from
// AsyncRequest::wait().
void inject(const char* point, int rank) {
  common::FaultInjector::instance().maybe_fail(point, rank);
}

struct CommMetrics {
  obs::Counter& allreduce_calls;
  obs::Counter& allreduce_bytes;
  obs::Counter& broadcast_bytes;
  obs::Counter& async_submissions;
  obs::Counter& timeouts;
  obs::Counter& aborts;
  obs::Counter& fenced;
  obs::Gauge& async_inflight;

  static CommMetrics& get() {
    auto& reg = obs::MetricsRegistry::instance();
    static CommMetrics m{reg.counter("comm.allreduce_calls"),
                         reg.counter("comm.allreduce_bytes"),
                         reg.counter("comm.broadcast_bytes"),
                         reg.counter("comm.async.submissions"),
                         reg.counter("comm.timeouts"),
                         reg.counter("comm.aborts"),
                         reg.counter("comm.fenced"),
                         reg.gauge("comm.async.inflight")};
    return m;
  }
};

// Global in-flight async-collective count behind the comm.async.inflight
// gauge. A last-write-wins gauge fed from racing fetch_add/fetch_sub
// pairs could publish a stale value after the queues drain, so the
// count-and-set runs under one process-wide mutex (submission rate is
// per-bucket, not per-element — the lock is cold).
void note_async_inflight(int64_t delta) {
  static std::mutex mutex;
  static int64_t inflight = 0;
  std::lock_guard<std::mutex> lock(mutex);
  inflight += delta;
  CommMetrics::get().async_inflight.set(static_cast<double>(inflight));
}

}  // namespace

const char* comm_error_kind_name(CommErrorKind kind) {
  switch (kind) {
    case CommErrorKind::kTimeout: return "timeout";
    case CommErrorKind::kPeerFailed: return "peer_failed";
    case CommErrorKind::kAborted: return "aborted";
  }
  return "?";
}

struct AsyncRequest::State {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  std::exception_ptr error;

  void complete(std::exception_ptr err) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      done = true;
      error = std::move(err);
    }
    cv.notify_all();
  }
};

AsyncRequest::AsyncRequest(std::shared_ptr<State> state)
    : state_(std::move(state)) {}

AsyncRequest::~AsyncRequest() = default;

bool AsyncRequest::done() const {
  DMIS_CHECK(state_ != nullptr, "done() on an empty AsyncRequest");
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->done;
}

void AsyncRequest::wait() {
  DMIS_CHECK(state_ != nullptr, "wait() on an empty AsyncRequest");
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock, [&] { return state_->done; });
  if (state_->error) std::rethrow_exception(state_->error);
}

CollectiveContext::CollectiveContext(int size, int64_t timeout_ms)
    : size_(size),
      timeout_ms_(timeout_ms < 0
                      ? env_int("DMIS_COMM_TIMEOUT_MS", 0).value_or(0)
                      : timeout_ms),
      ptrs_(static_cast<size_t>(size), nullptr),
      sizes_(static_cast<size_t>(size), 0),
      rank_state_(static_cast<size_t>(size)),
      agree_joined_(static_cast<size_t>(size), false),
      workers_(static_cast<size_t>(size)) {
  DMIS_CHECK(size >= 1, "communicator group needs >= 1 rank, got " << size);
  static std::atomic<int> next_group_id{0};
  group_id_ = next_group_id.fetch_add(1, std::memory_order_relaxed);
  flight_token_ = obs::FlightRecorder::instance().register_health_provider(
      "comm.group" + std::to_string(group_id_),
      [this] { return render_health_json(); });
}

CollectiveContext::~CollectiveContext() {
  obs::FlightRecorder::instance().unregister_health_provider(flight_token_);
}

std::string CollectiveContext::render_health_json() const {
  const char* names[] = {"healthy", "suspect", "dead"};
  std::ostringstream os;
  os << "{\"size\":" << size_
     << ",\"aborted\":" << (aborted() ? "true" : "false") << ",\"ranks\":[";
  for (int r = 0; r < size_; ++r) {
    const RankState& rs = rank_state_[static_cast<size_t>(r)];
    const uint8_t h = rs.health.load(std::memory_order_acquire);
    if (r > 0) os << ',';
    os << "{\"rank\":" << r << ",\"health\":\""
       << names[h < 3 ? h : 2] << "\",\"ops\":"
       << rs.ops.load(std::memory_order_acquire) << ",\"last_beat_us\":"
       << rs.last_beat_us.load(std::memory_order_relaxed) << '}';
  }
  os << "]}";
  return os.str();
}

RankHealth CollectiveContext::health(int rank) const {
  DMIS_CHECK(rank >= 0 && rank < size_, "bad rank " << rank);
  return static_cast<RankHealth>(
      rank_state_[static_cast<size_t>(rank)].health.load(
          std::memory_order_acquire));
}

CollectiveContext::Deadline CollectiveContext::collective_deadline() const {
  Deadline d;
  if (timeout_ms_ > 0) {
    d.at = std::chrono::steady_clock::now() +
           std::chrono::milliseconds(timeout_ms_);
    d.armed = true;
  }
  return d;
}

void CollectiveContext::beat(int rank) {
  RankState& rs = rank_state_[static_cast<size_t>(rank)];
  rs.last_beat_us.store(obs::Tracer::now_us(), std::memory_order_relaxed);
  rs.ops.fetch_add(1, std::memory_order_release);
}

void CollectiveContext::throw_poisoned_locked() const {
  throw CommError(abort_kind_, "collective group poisoned (" +
                                   std::string(comm_error_kind_name(
                                       abort_kind_)) +
                                   "): " + abort_reason_);
}

void CollectiveContext::publish(int rank, float* data, size_t len) {
  // Every rank that leaves a collective early has poisoned the group
  // first, so this check alone keeps its next registration away from
  // peers still reading the last one.
  if (aborted()) {
    const std::lock_guard<std::mutex> lock(barrier_mutex_);
    throw_poisoned_locked();
  }
  ptrs_[static_cast<size_t>(rank)] = data;
  sizes_[static_cast<size_t>(rank)] = len;
}

void CollectiveContext::sync(const Deadline& deadline, int rank) {
  std::unique_lock<std::mutex> lock(barrier_mutex_);
  if (aborted_.load(std::memory_order_relaxed)) throw_poisoned_locked();
  // The heartbeat op counter doubles as a collective sequence number:
  // every rank of one rendezvous must be on the same collective. A rank
  // that failed a collective at entry (never beat) and went on to the
  // next one would otherwise complete a rendezvous its peers are still
  // holding for the *previous* collective — with mismatched buffers.
  // Detect the desync here and poison the group instead of corrupting.
  const int64_t my_ops =
      rank_state_[static_cast<size_t>(rank)].ops.load(
          std::memory_order_relaxed);
  if (arrived_ == 0) {
    sync_ops_ = my_ops;
  } else if (my_ops != sync_ops_) {
    const std::string reason =
        "collective sequence mismatch: rank " + std::to_string(rank) +
        " is at op " + std::to_string(my_ops) +
        " while the rendezvous is for op " + std::to_string(sync_ops_) +
        " (a rank lost a collective)";
    abort_kind_ = CommErrorKind::kPeerFailed;
    abort_reason_ = reason;
    aborted_.store(true, std::memory_order_release);
    CommMetrics::get().aborts.add(1);
    lock.unlock();
    barrier_cv_.notify_all();
    agree_cv_.notify_all();
    obs::FlightRecorder::instance().dump("comm.abort.desync");
    throw CommError(CommErrorKind::kPeerFailed, reason);
  }
  const uint64_t gen = generation_;
  if (++arrived_ == size_) {
    arrived_ = 0;
    ++generation_;
    lock.unlock();
    barrier_cv_.notify_all();
    return;
  }
  for (;;) {
    if (!deadline.armed) {
      barrier_cv_.wait(lock);
    } else if (barrier_cv_.wait_until(lock, deadline.at) ==
               std::cv_status::timeout) {
      if (generation_ != gen) return;  // released at the buzzer
      if (!aborted_.load(std::memory_order_relaxed)) {
        // This rank's deadline expired first: condemn the laggards —
        // every rank whose heartbeat op-count is behind ours never even
        // entered this collective — and poison the group.
        CommMetrics::get().timeouts.add(1);
        const int64_t my_ops =
            rank_state_[static_cast<size_t>(rank)].ops.load(
                std::memory_order_acquire);
        std::ostringstream suspects;
        for (int r = 0; r < size_; ++r) {
          if (r == rank) continue;
          RankState& rs = rank_state_[static_cast<size_t>(r)];
          if (rs.ops.load(std::memory_order_acquire) < my_ops) {
            uint8_t healthy =
                static_cast<uint8_t>(RankHealth::kHealthy);
            rs.health.compare_exchange_strong(
                healthy, static_cast<uint8_t>(RankHealth::kSuspect),
                std::memory_order_acq_rel);
            suspects << ' ' << r;
          }
        }
        const std::string who = suspects.str();
        abort_kind_ = CommErrorKind::kPeerFailed;
        abort_reason_ = "rank " + std::to_string(rank) +
                        " timed out after " + std::to_string(timeout_ms_) +
                        " ms in a collective rendezvous" +
                        (who.empty() ? std::string(
                                           " (no laggard identified)")
                                     : "; suspect rank(s):" + who);
        aborted_.store(true, std::memory_order_release);
        CommMetrics::get().aborts.add(1);
        lock.unlock();
        barrier_cv_.notify_all();
        obs::FlightRecorder::instance().dump("comm.abort.timeout");
        throw CommError(CommErrorKind::kTimeout,
                        "collective deadline of " +
                            std::to_string(timeout_ms_) +
                            " ms expired on rank " + std::to_string(rank) +
                            (who.empty() ? "" : "; suspect rank(s):" + who));
      }
    }
    if (generation_ != gen) return;
    if (aborted_.load(std::memory_order_relaxed)) throw_poisoned_locked();
  }
}

void CollectiveContext::check_sizes(const char* op, int rank, int ref) {
  const size_t want = sizes_[static_cast<size_t>(ref)];
  // Name this rank if it is an odd one out, else the first that is.
  int bad = sizes_[static_cast<size_t>(rank)] != want ? rank : -1;
  for (int r = 0; r < size_ && bad < 0; ++r) {
    if (sizes_[static_cast<size_t>(r)] != want) bad = r;
  }
  if (bad < 0) return;
  const std::string reason =
      std::string(op) + " size mismatch: rank " + std::to_string(ref) +
      " has " + std::to_string(want) + ", rank " + std::to_string(bad) +
      " has " + std::to_string(sizes_[static_cast<size_t>(bad)]);
  abort(CommErrorKind::kPeerFailed, reason);
  if (bad == rank) throw InvalidArgument(reason);
  throw CommError(CommErrorKind::kPeerFailed, reason);
}

void CollectiveContext::abort(CommErrorKind kind, const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(barrier_mutex_);
    if (aborted_.load(std::memory_order_relaxed)) return;  // first wins
    abort_kind_ = kind;
    abort_reason_ = reason;
    aborted_.store(true, std::memory_order_release);
    CommMetrics::get().aborts.add(1);
  }
  barrier_cv_.notify_all();
  agree_cv_.notify_all();
  // After the locks are gone: a fatal group poisoning is exactly the
  // moment the flight recorder exists for.
  obs::FlightRecorder::instance().dump("comm.abort");
}

void CollectiveContext::mark_failed(int rank, const std::string& why) {
  rank_state_[static_cast<size_t>(rank)].health.store(
      static_cast<uint8_t>(RankHealth::kDead), std::memory_order_release);
  abort(CommErrorKind::kPeerFailed,
        "rank " + std::to_string(rank) + " failed: " + why);
}

std::vector<int> CollectiveContext::agree_on_failures(int rank,
                                                      int64_t grace_ms) {
  DMIS_CHECK(aborted(), "agree_on_failures() before the group was "
                        "poisoned — survivors only agree after an abort");
  std::unique_lock<std::mutex> lock(agree_mutex_);
  RankState& self = rank_state_[static_cast<size_t>(rank)];
  if (agree_sealed_ || self.health.load(std::memory_order_acquire) ==
                           static_cast<uint8_t>(RankHealth::kDead)) {
    // Arrived after the seal (or already condemned): fenced out.
    if (!agree_sealed_ ||
        std::find(agreed_dead_.begin(), agreed_dead_.end(), rank) !=
            agreed_dead_.end()) {
      CommMetrics::get().fenced.add(1);
      throw CommError(CommErrorKind::kAborted,
                      "rank " + std::to_string(rank) +
                          " fenced out of the group (arrived after the "
                          "failure agreement sealed)");
    }
    return agreed_dead_;  // sealed as a survivor before we re-asked
  }
  // Register alive; a suspect that makes it here in time is exonerated.
  agree_joined_[static_cast<size_t>(rank)] = true;
  uint8_t suspect = static_cast<uint8_t>(RankHealth::kSuspect);
  self.health.compare_exchange_strong(
      suspect, static_cast<uint8_t>(RankHealth::kHealthy),
      std::memory_order_acq_rel);
  agree_cv_.notify_all();

  const auto covered = [&] {
    for (int r = 0; r < size_; ++r) {
      if (agree_joined_[static_cast<size_t>(r)]) continue;
      if (rank_state_[static_cast<size_t>(r)].health.load(
              std::memory_order_acquire) ==
          static_cast<uint8_t>(RankHealth::kHealthy)) {
        return false;
      }
    }
    return true;
  };

  const auto grace_deadline = std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(grace_ms);
  while (!agree_sealed_) {
    if (covered()) {
      // Seal: everyone not registered by now is dead — suspects and
      // self-reported failures alike.
      agreed_dead_.clear();
      for (int r = 0; r < size_; ++r) {
        if (agree_joined_[static_cast<size_t>(r)]) continue;
        rank_state_[static_cast<size_t>(r)].health.store(
            static_cast<uint8_t>(RankHealth::kDead),
            std::memory_order_release);
        agreed_dead_.push_back(r);
      }
      agree_sealed_ = true;
      agree_cv_.notify_all();
      break;
    }
    if (agree_cv_.wait_until(lock, grace_deadline) ==
        std::cv_status::timeout) {
      if (agree_sealed_) break;
      // Grace expired: condemn everyone still missing, healthy or not.
      for (int r = 0; r < size_; ++r) {
        if (agree_joined_[static_cast<size_t>(r)]) continue;
        rank_state_[static_cast<size_t>(r)].health.store(
            static_cast<uint8_t>(RankHealth::kDead),
            std::memory_order_release);
      }
      // Loop re-evaluates covered() — now true — and seals.
    }
  }
  return agreed_dead_;
}

AsyncRequest CollectiveContext::submit(int rank, std::function<void()> fn) {
  std::unique_ptr<ThreadPool>& worker = workers_[static_cast<size_t>(rank)];
  if (worker == nullptr) worker = std::make_unique<ThreadPool>(1);
  auto state = std::make_shared<AsyncRequest::State>();
  CommMetrics::get().async_submissions.add(1);
  note_async_inflight(+1);
  worker->submit([fn = std::move(fn), state] {
    std::exception_ptr err;
    try {
      fn();
    } catch (...) {
      err = std::current_exception();
    }
    note_async_inflight(-1);
    state->complete(std::move(err));
  });
  return AsyncRequest(state);
}

Communicator::Communicator(std::shared_ptr<CollectiveContext> ctx, int rank)
    : ctx_(std::move(ctx)), rank_(rank) {
  DMIS_CHECK(ctx_ != nullptr, "null collective context");
  DMIS_CHECK(rank >= 0 && rank < ctx_->size(),
             "rank " << rank << " out of range for group of "
                     << ctx_->size());
}

void Communicator::abort(const std::string& reason) {
  ctx_->mark_failed(rank_, reason);
}

std::vector<int> Communicator::agree_on_failures(int64_t grace_ms) {
  return ctx_->agree_on_failures(rank_, grace_ms);
}

void Communicator::run_ordered(std::function<void()> fn) {
  // Once this rank's comm worker exists, every collective of the rank
  // must pass through its FIFO queue: rendezvous arrivals then follow
  // submission order, which keeps them matched even when async and
  // blocking collectives interleave. Blocking collectives before the
  // first async one run inline — the common per-tensor path pays no
  // thread hand-off.
  if (ctx_->workers_[static_cast<size_t>(rank_)] != nullptr) {
    ctx_->submit(rank_, std::move(fn)).wait();
  } else {
    fn();
  }
}

void Communicator::broadcast(std::span<float> data, int root) {
  run_ordered([this, data, root] { broadcast_impl(data, root); });
}

void Communicator::broadcast_impl(std::span<float> data, int root) {
  inject("comm.broadcast", rank_);
  DMIS_TRACE_SPAN("comm.broadcast",
                  {{"bytes", static_cast<int64_t>(data.size() *
                                                  sizeof(float))},
                   {"root", root}});
  CommMetrics::get().broadcast_bytes.add(
      static_cast<int64_t>(data.size() * sizeof(float)));
  DMIS_CHECK(root >= 0 && root < size(), "bad broadcast root " << root);
  auto& ctx = *ctx_;
  ctx.beat(rank_);
  const auto deadline = ctx.collective_deadline();
  ctx.publish(rank_, data.data(), data.size());
  ctx.sync(deadline, rank_);
  ctx.check_sizes("broadcast", rank_, root);
  if (rank_ != root) {
    const float* src = ctx.ptrs_[static_cast<size_t>(root)];
    std::memcpy(data.data(), src, data.size() * sizeof(float));
  }
  ctx.sync(deadline, rank_);
}

void Communicator::all_reduce_sum(std::span<float> data, float scale) {
  run_ordered([this, data, scale] { all_reduce_impl(data, scale); });
}

AsyncRequest Communicator::all_reduce_sum_async(std::span<float> data,
                                                float scale) {
  return ctx_->submit(rank_,
                      [this, data, scale] { all_reduce_impl(data, scale); });
}

void Communicator::all_reduce_impl(std::span<float> data, float scale) {
  inject("comm.all_reduce", rank_);
  const int n = size();
  DMIS_TRACE_SPAN("comm.allreduce",
                  {{"bytes", static_cast<int64_t>(data.size() *
                                                  sizeof(float))},
                   {"ranks", n}});
  CommMetrics& metrics = CommMetrics::get();
  metrics.allreduce_calls.add(1);
  metrics.allreduce_bytes.add(
      static_cast<int64_t>(data.size() * sizeof(float)));
  if (n == 1) {
    if (scale != 1.0F) {
      for (float& v : data) v *= scale;
    }
    return;
  }
  const size_t len = data.size();
  float* mine = data.data();
  auto& ctx = *ctx_;
  ctx.beat(rank_);
  const auto deadline = ctx.collective_deadline();
  ctx.publish(rank_, mine, len);
  ctx.sync(deadline, rank_);
  ctx.check_sizes("all_reduce", rank_, 0);

  // The chunked ring NCCL uses: reduce-scatter + all-gather, 2(n-1)
  // steps of len/n elements each, every step closed by a group-wide
  // sync. Bandwidth-optimal per rank; latency grows linearly in n. The
  // final sync is what licenses ranks to leave: no peer reads this
  // rank's buffer after it.
  const size_t chunk_len =
      (len + static_cast<size_t>(n) - 1) / static_cast<size_t>(n);
  const auto chunk_begin = [&](int c) {
    return std::min(len, static_cast<size_t>(c) * chunk_len);
  };
  const auto chunk_end = [&](int c) {
    return std::min(len, (static_cast<size_t>(c) + 1) * chunk_len);
  };
  const float* theirs = ctx.ptrs_[static_cast<size_t>((rank_ - 1 + n) % n)];

  // Phase 1 — reduce-scatter: at step s, rank i accumulates chunk
  // (i - 1 - s) mod n from its left neighbor. After n-1 steps rank i
  // holds the complete chunk (i + 1) mod n. The final step completes
  // that owned chunk, so `scale` lands there fused with the last
  // accumulation — every element is scaled exactly once, by its owner,
  // before the all-gather phase propagates it.
  {
    DMIS_TRACE_SPAN("comm.allreduce.reduce_scatter", {{"steps", n - 1}});
    for (int s = 0; s < n - 1; ++s) {
      const int c = ((rank_ - 1 - s) % n + n) % n;
      const size_t b = chunk_begin(c), e = chunk_end(c);
      if (s == n - 2 && scale != 1.0F) {
        for (size_t k = b; k < e; ++k) {
          mine[k] = (mine[k] + theirs[k]) * scale;
        }
      } else {
        for (size_t k = b; k < e; ++k) mine[k] += theirs[k];
      }
      ctx.sync(deadline, rank_);
    }
  }

  // Phase 2 — all-gather: at step s, rank i copies chunk (i - s) mod n
  // (the one its left neighbor just completed/received).
  {
    DMIS_TRACE_SPAN("comm.allreduce.all_gather", {{"steps", n - 1}});
    for (int s = 0; s < n - 1; ++s) {
      const int c = ((rank_ - s) % n + n) % n;
      const size_t b = chunk_begin(c), e = chunk_end(c);
      if (e > b) std::memcpy(mine + b, theirs + b, (e - b) * sizeof(float));
      ctx.sync(deadline, rank_);
    }
  }
}

std::vector<Communicator> make_group(int size, int64_t timeout_ms) {
  auto ctx = std::make_shared<CollectiveContext>(size, timeout_ms);
  std::vector<Communicator> comms;
  comms.reserve(static_cast<size_t>(size));
  for (int r = 0; r < size; ++r) comms.emplace_back(ctx, r);
  return comms;
}

}  // namespace dmis::comm
