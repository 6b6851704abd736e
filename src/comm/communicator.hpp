// In-process collectives — the NCCL / Ray.SGD synchronization substrate.
//
// The paper's data-parallel strategy synchronizes replica gradients with
// an allreduce every step (tf.MirroredStrategy within a node, Ray.SGD
// across nodes, NCCL underneath). This module provides the two
// collectives that training issues — the gradient all-reduce and the
// broadcast that (re-)admits replicas — for ranks that are threads of
// one process, using the MPI naming scheme: a fixed group of `size`
// ranks, each owning a Communicator handle bound to a shared
// CollectiveContext.
//
// all_reduce_sum runs a real communication schedule — the *chunked
// ring* NCCL uses (reduce-scatter + all-gather, 2(n-1) barrier-separated
// steps, Communicator::all_reduce_impl) rather than a trivial
// shared-memory reduction, so the communication structure (and the
// 2*(n-1)/n traffic factor modeled by the cluster simulator) is real.
//
// Usage is SPMD: every rank must call the same collectives in the same
// order, and one rank's calls are sequenced (a Communicator is used by
// one thread at a time). Blocking collectives block until the whole
// group participates.
//
// Nonblocking path: all_reduce_sum_async hands the operation to this
// rank's *comm worker* — a one-thread ThreadPool per rank, owned by the
// context, created lazily on the rank's first async submission — and
// returns an AsyncRequest immediately, so the issuing thread can keep
// computing (backward) while the ring runs. Per-rank submission order is
// the execution order; the SPMD contract extends unchanged: every rank
// must submit the same collectives in the same order. Once a rank's
// worker exists, its blocking collectives are routed through the same
// FIFO queue (submit + wait), which keeps rendezvous matched when async
// and blocking calls interleave. Buffers passed to an async collective
// must stay alive and untouched until wait() returns.
//
// Failure semantics (the part NCCL gets from its watchdog):
//  * Deadlines. Every collective — blocking or async — observes a
//    per-collective deadline (DMIS_COMM_TIMEOUT_MS, or the explicit
//    timeout handed to the context; 0 = wait forever, the pre-failure-
//    semantics behavior). A rank whose rendezvous wait exceeds the
//    deadline throws CommError{kTimeout}, marks the ranks that never
//    arrived as suspects in the health table, and poisons the group.
//  * Poison pill. abort() (or an internal timeout) marks the context
//    aborted — *sticky* — and wakes every rank blocked in any
//    rendezvous; they throw CommError{kPeerFailed or kAborted} instead
//    of deadlocking. Every later collective on the context fails fast
//    the same way. An aborted group is dead; recovery means building a
//    new (smaller) group — see train::MirroredStrategy's elastic mode.
//    Buffers of different lengths poison the group too: the mismatched
//    rank throws InvalidArgument, its peers CommError{kPeerFailed}.
//  * Health table. Each rank heartbeats at collective entry (timestamp
//    + op count; the flight recorder's health rows show both, and the
//    op count sequences the rendezvous). Timeouts turn laggards into
//    suspects; abort() and fencing turn ranks into kDead.
//  * Agreement. After an abort, survivors call agree_on_failures():
//    each registers itself alive and folds in its suspicions; the round
//    *seals* once every rank is either registered or suspected/dead (or
//    a grace deadline passes, condemning the missing). Every registered
//    caller returns the same sealed dead-set; a rank arriving after the
//    seal finds itself condemned and is fenced out with kAborted. This
//    is what lets all survivors rebuild the same shrunken group.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/check.hpp"

namespace dmis {
class ThreadPool;
}  // namespace dmis

namespace dmis::comm {

class CollectiveContext;
class Communicator;

/// Why a collective failed.
enum class CommErrorKind {
  kTimeout,     ///< This rank's own per-collective deadline expired.
  kPeerFailed,  ///< A peer was reported dead / timed out; group poisoned.
  kAborted,     ///< Explicit abort(), or fenced out after the agreement.
};

const char* comm_error_kind_name(CommErrorKind kind);

/// Typed failure of a collective. Ranks blocked in a rendezvous when the
/// group is poisoned throw this instead of deadlocking.
class CommError : public Error {
 public:
  CommError(CommErrorKind kind, const std::string& what)
      : Error(what), kind_(kind) {}
  CommErrorKind kind() const { return kind_; }

 private:
  CommErrorKind kind_;
};

/// Per-rank liveness as observed through collective heartbeats.
enum class RankHealth : uint8_t {
  kHealthy,  ///< Beating normally.
  kSuspect,  ///< Missed a rendezvous deadline somebody else hit.
  kDead,     ///< Aborted itself, or condemned by the agreement round.
};

/// Completion handle for a nonblocking collective. Copyable (shared
/// state); wait() may be called from any thread, any number of times,
/// and in any order relative to other requests.
class AsyncRequest {
 public:
  AsyncRequest() = default;
  ~AsyncRequest();
  AsyncRequest(const AsyncRequest&) = default;
  AsyncRequest& operator=(const AsyncRequest&) = default;
  AsyncRequest(AsyncRequest&&) noexcept = default;
  AsyncRequest& operator=(AsyncRequest&&) noexcept = default;

  /// True if this handle refers to a submitted operation.
  bool valid() const { return state_ != nullptr; }

  /// True once the operation has completed (successfully or not).
  bool done() const;

  /// Blocks until the operation completes; rethrows any error the comm
  /// worker hit while executing it (e.g. common::FaultInjected, or
  /// CommError once the group is poisoned).
  void wait();

  struct State;  // defined in communicator.cpp

 private:
  friend class CollectiveContext;
  explicit AsyncRequest(std::shared_ptr<State> state);

  std::shared_ptr<State> state_;
};

/// Shared rendezvous state for one group of ranks.
class CollectiveContext {
 public:
  /// `timeout_ms` is the per-collective deadline: < 0 resolves
  /// DMIS_COMM_TIMEOUT_MS (unset/empty -> 0), 0 waits forever.
  explicit CollectiveContext(int size, int64_t timeout_ms = -1);
  ~CollectiveContext();

  CollectiveContext(const CollectiveContext&) = delete;
  CollectiveContext& operator=(const CollectiveContext&) = delete;

  int size() const { return size_; }

  /// Effective per-collective deadline in ms (0 = none).
  int64_t timeout_ms() const { return timeout_ms_; }

  /// True once the group has been poisoned (sticky).
  bool aborted() const { return aborted_.load(std::memory_order_acquire); }

  /// Health of `rank` as currently recorded.
  RankHealth health(int rank) const;

 private:
  friend class Communicator;

  struct RankState {
    std::atomic<int64_t> last_beat_us{0};
    std::atomic<int64_t> ops{0};
    std::atomic<uint8_t> health{
        static_cast<uint8_t>(RankHealth::kHealthy)};
  };
  /// Per-collective deadline, computed once at collective entry and
  /// shared by every rendezvous of that collective.
  struct Deadline {
    std::chrono::steady_clock::time_point at;
    bool armed = false;
  };

  Deadline collective_deadline() const;

  /// Heartbeat: `rank` entered a collective.
  void beat(int rank);

  /// Registers `rank`'s buffer for the collective it just entered;
  /// fails fast on a poisoned group.
  void publish(int rank, float* data, size_t len);

  /// Abortable, deadline-aware barrier replacing std::barrier. Throws
  /// CommError on timeout (after poisoning the group) or when woken by
  /// a poison pill.
  void sync(const Deadline& deadline, int rank);

  /// After the registration rendezvous: every rank's buffer must be as
  /// long as rank `ref`'s. On a mismatch each rank poisons the group
  /// before leaving — the mismatched rank throws InvalidArgument, its
  /// peers CommError{kPeerFailed} — so no peer waits on the caller's
  /// bug or reads past a shorter buffer.
  void check_sizes(const char* op, int rank, int ref);

  /// Poisons the group: records kind/reason for ranks that wake out of
  /// a rendezvous, wakes them all, and makes every later collective
  /// fail fast. Idempotent — the first cause wins.
  void abort(CommErrorKind kind, const std::string& reason);

  /// Marks `rank` dead and poisons the group with kPeerFailed.
  void mark_failed(int rank, const std::string& why);

  /// Post-abort agreement round (see file comment). Returns the sealed
  /// dead-set (sorted rank ids); throws CommError{kAborted} if this
  /// rank was condemned before it arrived (fenced out).
  std::vector<int> agree_on_failures(int rank, int64_t grace_ms);

  [[noreturn]] void throw_poisoned_locked() const;

  /// Rank health table as a JSON object (flight-recorder provider).
  std::string render_health_json() const;

  /// Enqueues `fn` on `rank`'s worker (created on first use); returns
  /// the completion handle.
  AsyncRequest submit(int rank, std::function<void()> fn);

  int size_;
  int64_t timeout_ms_ = 0;
  std::vector<float*> ptrs_;  // per-rank buffer registration
  std::vector<size_t> sizes_;

  // Rendezvous state (the abortable barrier).
  mutable std::mutex barrier_mutex_;
  std::condition_variable barrier_cv_;
  int arrived_ = 0;
  uint64_t generation_ = 0;
  int64_t sync_ops_ = 0;  // op-seq of the current rendezvous (see sync())
  std::atomic<bool> aborted_{false};
  CommErrorKind abort_kind_ = CommErrorKind::kAborted;  // barrier_mutex_
  std::string abort_reason_;                            // barrier_mutex_

  // Health table; entries are written under barrier_mutex_ or by the
  // owning rank (beat), read lock-free.
  std::vector<RankState> rank_state_;

  // Agreement round state.
  std::mutex agree_mutex_;
  std::condition_variable agree_cv_;
  std::vector<bool> agree_joined_;
  bool agree_sealed_ = false;
  std::vector<int> agreed_dead_;

  // Flight-recorder integration: the group publishes its rank health
  // table ("comm.group<id>") for crash dumps.
  int group_id_ = 0;
  int flight_token_ = -1;

  // Per-rank comm workers (one-thread pools), null until the rank's
  // first async submission. Only the rank's own calls touch its entry,
  // and those are sequenced. Declared last: destroyed first, so each
  // pool drains its queued collectives and joins while the state they
  // use is still alive.
  std::vector<std::unique_ptr<ThreadPool>> workers_;
};

/// One rank's handle onto the group.
class Communicator {
 public:
  Communicator(std::shared_ptr<CollectiveContext> ctx, int rank);

  int rank() const { return rank_; }
  int size() const { return ctx_->size(); }

  /// Per-collective deadline in ms (0 = none).
  int64_t timeout_ms() const { return ctx_->timeout_ms(); }

  /// True once the group has been poisoned.
  bool aborted() const { return ctx_->aborted(); }

  /// Health of `rank` as observed through collective heartbeats.
  RankHealth health(int rank) const { return ctx_->health(rank); }

  /// Poison pill: marks this rank dead, wakes every rank blocked in a
  /// collective (they throw CommError{kPeerFailed}) and makes all later
  /// collectives on this group fail fast. Call when this rank is about
  /// to die so failure propagates instead of deadlocking the ring.
  void abort(const std::string& reason);

  /// After the group is poisoned: joins the survivor agreement round
  /// and returns the sealed set of dead ranks (identical on every
  /// surviving caller). Waits at most `grace_ms` for peers to register
  /// before condemning them. Throws CommError{kAborted} if this rank
  /// was itself condemned (fenced out) — the caller must treat itself
  /// as dead.
  std::vector<int> agree_on_failures(int64_t grace_ms = 250);

  /// Copies root's buffer into every rank's buffer. Lengths must match
  /// on every rank; a mismatch poisons the group (see the file comment).
  void broadcast(std::span<float> data, int root);

  /// Element-wise sum across ranks, times `scale`; every rank ends with
  /// the result. Chunked ring (reduce-scatter + all-gather). `scale` is
  /// fused into the final reduce-scatter step — each chunk is scaled
  /// once by its owning rank before the all-gather propagates it — so
  /// the result is exactly (unscaled sum) * scale, bit for bit, with no
  /// extra pass; scale = 1/size() is the gradient mean. All ranks must
  /// pass the same `scale` and buffers of the same length.
  void all_reduce_sum(std::span<float> data, float scale = 1.0F);

  /// Nonblocking all_reduce_sum: enqueues the ring on this rank's comm
  /// worker and returns immediately. `data` must stay alive and
  /// untouched until wait() returns. The result is bit-identical to the
  /// blocking call with the same `scale`.
  AsyncRequest all_reduce_sum_async(std::span<float> data,
                                    float scale = 1.0F);

 private:
  /// The all-reduce: fault point, metrics/span, heartbeat, registration
  /// rendezvous, then the chunked ring. `scale` != 1 is folded into each
  /// element's final accumulation.
  void all_reduce_impl(std::span<float> data, float scale);
  void broadcast_impl(std::span<float> data, int root);

  /// Runs a collective body in per-rank program order: directly while
  /// this rank has no comm worker, through its queue (submit + wait)
  /// once it does.
  void run_ordered(std::function<void()> fn);

  std::shared_ptr<CollectiveContext> ctx_;
  int rank_;
};

/// Creates one communicator per rank over a fresh shared context.
/// `timeout_ms` < 0 resolves DMIS_COMM_TIMEOUT_MS (unset -> no deadline).
std::vector<Communicator> make_group(int size, int64_t timeout_ms = -1);

}  // namespace dmis::comm
