// Work-sharing thread pool, parallel_for, and the per-thread core budget.
//
// This is the shared-memory parallelism layer used by convolution kernels
// and the data pipeline — the moral equivalent of an OpenMP
// `parallel for schedule(static)` region: the index range is split into
// contiguous chunks, one per worker, and the caller blocks until all
// chunks complete. Exceptions thrown by worker bodies are captured and
// rethrown on the calling thread (first one wins).
//
// Core budget. Every thread carries an intra-op share: the most chunks
// its parallel_for calls split into. Unset, it is the whole pool, so a
// lone caller (main, a test) uses every core. A thread that starts `u`
// concurrent units — the mirrored strategy's rank workers, RayLite's
// tune slots, the segmentation server's workers — hands each of them
// unit_share(u) = max(1, own share / u), which each unit's thread sets
// on itself. Shares nest: a world-2 strategy inside one of 2 tune slots
// on 4 cores gives each rank 1 core, which runs its loops inline. The
// budget is derived from the global pool's size and is never configured.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dmis {

/// Fixed-size pool of worker threads executing queued closures.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1).
  explicit ThreadPool(int num_threads);

  /// Joins all workers; outstanding tasks are drained first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues one closure for asynchronous execution.
  void submit(std::function<void()> task);

  /// Runs one queued task on the calling thread if any is pending.
  /// Lets blocked callers help drain the queue (prevents deadlock under
  /// nested parallel_for). Returns false when the queue was empty.
  bool try_run_one();

  /// Blocks until every submitted task has finished.
  void wait_idle();

  /// Process-wide pool sized to the hardware concurrency. Intended for
  /// compute kernels; components needing private pools construct their own.
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  int64_t in_flight_ = 0;
  bool stop_ = false;
};

/// The calling thread's intra-op share: set_intra_op_share()'s value, or
/// ThreadPool::global().size() when this thread never set one.
int intra_op_share();

/// Sets the calling thread's intra-op share (>= 1) for the rest of its
/// life. A unit's thread calls it once, with the unit_share() its
/// starter computed.
void set_intra_op_share(int share);

/// The share each of `units` (>= 1) concurrent units started by the
/// calling thread gets: max(1, intra_op_share() / units).
int unit_share(int units);

/// Splits [begin, end) into contiguous chunks across `pool` and runs
/// `body(chunk_begin, chunk_end)` on each; blocks until completion.
/// Uses min(pool.size(), share) chunks when the calling thread set a
/// share, pool.size() otherwise. Falls back to inline execution for
/// empty/small ranges, a 1-thread pool or a share of 1.
void parallel_for(ThreadPool& pool, int64_t begin, int64_t end,
                  const std::function<void(int64_t, int64_t)>& body);

/// parallel_for over the global pool.
void parallel_for(int64_t begin, int64_t end,
                  const std::function<void(int64_t, int64_t)>& body);

}  // namespace dmis
