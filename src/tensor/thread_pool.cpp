#include "tensor/thread_pool.hpp"

#include <algorithm>
#include <atomic>

#include "common/check.hpp"

namespace dmis {
namespace {

// 0 = unset: parallel_for splits over the whole pool it is handed.
thread_local int t_intra_op_share = 0;

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  DMIS_CHECK(num_threads >= 1, "thread pool needs >= 1 thread, got "
                                   << num_threads);
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    DMIS_CHECK(!stop_, "submit() on a stopped thread pool");
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

bool ThreadPool::try_run_one() {
  std::function<void()> task;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  task();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (--in_flight_ == 0) cv_idle_.notify_all();
  }
  return true;
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (--in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(
      std::max(1, static_cast<int>(std::thread::hardware_concurrency())));
  return pool;
}

int intra_op_share() {
  return t_intra_op_share > 0 ? t_intra_op_share : ThreadPool::global().size();
}

void set_intra_op_share(int share) {
  DMIS_CHECK(share >= 1, "intra-op share must be >= 1, got " << share);
  t_intra_op_share = share;
}

int unit_share(int units) {
  DMIS_CHECK(units >= 1, "need >= 1 unit, got " << units);
  return std::max(1, intra_op_share() / units);
}

void parallel_for(ThreadPool& pool, int64_t begin, int64_t end,
                  const std::function<void(int64_t, int64_t)>& body) {
  const int64_t n = end - begin;
  if (n <= 0) return;
  const int width = t_intra_op_share > 0
                        ? std::min(pool.size(), t_intra_op_share)
                        : pool.size();
  const int num_chunks = static_cast<int>(std::min<int64_t>(n, width));
  if (num_chunks <= 1) {
    body(begin, end);
    return;
  }

  // Static chunking: contiguous ranges of near-equal size, one per worker.
  // The caller keeps the first chunk for itself and helps drain the queue
  // while waiting, so nested parallel_for cannot deadlock the pool.
  const int64_t chunk = (n + num_chunks - 1) / num_chunks;
  std::atomic<int> remaining{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  const auto run_guarded = [&](int64_t lo, int64_t hi) {
    try {
      body(lo, hi);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
    remaining.fetch_sub(1, std::memory_order_acq_rel);
  };

  for (int64_t lo = begin + chunk; lo < end; lo += chunk) {
    const int64_t hi = std::min(end, lo + chunk);
    remaining.fetch_add(1, std::memory_order_relaxed);
    pool.submit([&, lo, hi] { run_guarded(lo, hi); });
  }

  // First chunk runs on the calling thread.
  remaining.fetch_add(1, std::memory_order_relaxed);
  run_guarded(begin, std::min(end, begin + chunk));

  while (remaining.load(std::memory_order_acquire) > 0) {
    if (!pool.try_run_one()) std::this_thread::yield();
  }
  if (first_error) std::rethrow_exception(first_error);
}

void parallel_for(int64_t begin, int64_t end,
                  const std::function<void(int64_t, int64_t)>& body) {
  parallel_for(ThreadPool::global(), begin, end, body);
}

}  // namespace dmis
