#include "raylite/raylite.hpp"

#include "common/check.hpp"
#include "common/fault_injector.hpp"
#include "obs/metrics.hpp"
#include "tensor/thread_pool.hpp"

namespace dmis::ray {

std::any Future::get() {
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock, [this] { return state_->done; });
  if (state_->error) std::rethrow_exception(state_->error);
  return state_->value;
}

bool Future::ready() const {
  const std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->done;
}

RayLite::RayLite(Resources total, int num_workers)
    : total_(total), available_(total) {
  DMIS_CHECK(total.gpus >= 0 && total.cpus >= 0, "negative resources");
  DMIS_CHECK(num_workers >= 1, "need >= 1 worker, got " << num_workers);
  // Each worker is one tune slot and gets its share of the cores.
  const int share = unit_share(num_workers);
  obs::MetricsRegistry::instance().gauge("tune.intra_op_threads")
      .set(static_cast<double>(share));
  workers_.reserve(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this, share] {
      set_intra_op_share(share);
      worker_loop();
    });
  }
}

RayLite::~RayLite() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

Future RayLite::submit(const Resources& req, TaskFn fn) {
  DMIS_CHECK(req.gpus >= 0 && req.cpus >= 0, "negative resource request");
  DMIS_CHECK(req.fits_in(total_),
             "request {gpus:" << req.gpus << ", cpus:" << req.cpus
                              << "} exceeds cluster total {gpus:"
                              << total_.gpus << ", cpus:" << total_.cpus
                              << "}");
  DMIS_CHECK(fn != nullptr, "null task");
  Future future;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    DMIS_CHECK(!stop_, "submit() on a shut-down cluster");
    queue_.push_back(PendingTask{req, std::move(fn), future.state_});
  }
  cv_.notify_all();
  return future;
}

bool RayLite::try_claim_locked(PendingTask& out) {
  // Resource-aware FIFO: take the first queued task that fits.
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->req.fits_in(available_)) {
      out = std::move(*it);
      queue_.erase(it);
      available_.gpus -= out.req.gpus;
      available_.cpus -= out.req.cpus;
      return true;
    }
  }
  return false;
}

void RayLite::worker_loop() {
  for (;;) {
    PendingTask task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] {
        return (stop_ && queue_.empty()) || try_claim_locked(task);
      });
      if (task.fn == nullptr) return;  // stopping and queue drained
    }

    std::any value;
    std::exception_ptr error;
    try {
      // Failure point: a worker dying as it picks up the task (the
      // preemption / OOM-kill case). Propagates through Future::get().
      common::FaultInjector::instance().maybe_fail("raylite.task");
      value = task.fn();
    } catch (...) {
      error = std::current_exception();
    }

    {
      const std::lock_guard<std::mutex> lock(mutex_);
      available_.gpus += task.req.gpus;
      available_.cpus += task.req.cpus;
      ++completed_;
    }
    {
      const std::lock_guard<std::mutex> lock(task.state->mutex);
      task.state->value = std::move(value);
      task.state->error = error;
      task.state->done = true;
    }
    task.state->cv.notify_all();
    cv_.notify_all();  // freed resources may admit queued tasks
  }
}

Resources RayLite::available_resources() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return available_;
}

int64_t RayLite::tasks_completed() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return completed_;
}

}  // namespace dmis::ray
