// RayLite: resource-aware task execution — the Ray.Cluster stand-in.
//
// A RayLite instance models one logical cluster with an aggregate
// resource pool (GPUs, CPUs). Tasks declare the resources they need;
// the dispatcher admits a task once its resources are free and a worker
// thread is available, in submission order with resource-aware skipping
// (a small task may overtake a large one that cannot currently be
// placed — Ray's queueing behaves the same way). submit() returns a
// Future; get() blocks and rethrows any task exception. Task submission
// is the only Ray primitive tune_run needs.
#pragma once

#include <any>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace dmis::ray {

struct Resources {
  int gpus = 0;
  int cpus = 1;

  bool fits_in(const Resources& avail) const {
    return gpus <= avail.gpus && cpus <= avail.cpus;
  }
};

/// Shared result slot for one submitted task.
class Future {
 public:
  /// Blocks until the task finishes; rethrows the task's exception.
  std::any get();

  /// True once the task has finished (successfully or not).
  bool ready() const;

 private:
  friend class RayLite;
  struct State {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    std::any value;
    std::exception_ptr error;
  };
  std::shared_ptr<State> state_ = std::make_shared<State>();
};

class RayLite {
 public:
  using TaskFn = std::function<std::any()>;

  /// A cluster with `total` resources executed by `num_workers` threads,
  /// each running at unit_share(num_workers) of the constructing
  /// thread's cores (tensor/thread_pool.hpp).
  RayLite(Resources total, int num_workers);

  /// Drains outstanding tasks, then joins the workers.
  ~RayLite();

  RayLite(const RayLite&) = delete;
  RayLite& operator=(const RayLite&) = delete;

  /// Enqueues `fn` requiring `req` resources. Throws if the request can
  /// never be satisfied by the total pool.
  Future submit(const Resources& req, TaskFn fn);

  Resources total_resources() const { return total_; }

  /// Resources currently available (snapshot; for tests/telemetry).
  Resources available_resources() const;

  /// Number of tasks executed to completion so far.
  int64_t tasks_completed() const;

 private:
  struct PendingTask {
    Resources req;
    TaskFn fn;
    std::shared_ptr<Future::State> state;
  };

  void worker_loop();
  bool try_claim_locked(PendingTask& out);

  Resources total_;
  Resources available_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<PendingTask> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
  int64_t completed_ = 0;
};

}  // namespace dmis::ray
