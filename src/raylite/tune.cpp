#include "raylite/tune.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <random>
#include <thread>

#include "comm/communicator.hpp"
#include "common/check.hpp"
#include "common/logging.hpp"
#include "nn/checkpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "raylite/sweep_ledger.hpp"

namespace dmis::ray {

const char* trial_status_name(TrialStatus s) {
  switch (s) {
    case TrialStatus::kPending: return "PENDING";
    case TrialStatus::kRunning: return "RUNNING";
    case TrialStatus::kTerminated: return "TERMINATED";
    case TrialStatus::kStopped: return "STOPPED";
    case TrialStatus::kFailed: return "FAILED";
  }
  return "?";
}

namespace {

// Retry classification (see RetryPolicy): a permanent error will fail
// the same way on every attempt, so retrying it only burns cluster
// time. Everything else — injected faults, I/O errors, comm timeouts
// and peer failures — is presumed transient.
bool is_permanent_failure(const std::exception& e) {
  if (const auto* ce = dynamic_cast<const comm::CommError*>(&e)) {
    return ce->kind() == comm::CommErrorKind::kAborted;
  }
  return dynamic_cast<const InvalidArgument*>(&e) != nullptr;
}

/// Shared ASHA bracket state: per-rung metric history.
class AshaState {
 public:
  explicit AshaState(const AshaOptions& opts) : opts_(opts) {
    DMIS_CHECK(opts.grace_period >= 1, "grace_period must be >= 1");
    DMIS_CHECK(opts.reduction_factor >= 2, "reduction_factor must be >= 2");
    int64_t milestone = opts.grace_period;
    for (int64_t k = 0; k < opts.max_rungs; ++k) {
      milestones_.push_back(milestone);
      milestone *= opts.reduction_factor;
    }
  }

  /// Returns true if the trial should STOP after reporting `value` at
  /// `iteration` (iteration is 0-based; milestone hit when
  /// iteration + 1 == milestone).
  bool record_and_decide(int64_t iteration, double value) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const int64_t completed = iteration + 1;
    const auto it =
        std::find(milestones_.begin(), milestones_.end(), completed);
    if (it == milestones_.end()) return false;
    const size_t rung = static_cast<size_t>(it - milestones_.begin());
    if (rung_values_.size() <= rung) rung_values_.resize(rung + 1);
    auto& values = rung_values_[rung];
    values.push_back(value);
    // Continue iff in the top 1/eta of everything recorded at this rung.
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    if (opts_.maximize) std::reverse(sorted.begin(), sorted.end());
    const size_t keep = std::max<size_t>(
        1, sorted.size() / static_cast<size_t>(opts_.reduction_factor));
    const double cutoff = sorted[keep - 1];
    return opts_.maximize ? value < cutoff : value > cutoff;
  }

  const std::string& metric() const { return opts_.metric; }

 private:
  AshaOptions opts_;
  std::mutex mutex_;
  std::vector<int64_t> milestones_;
  std::vector<std::vector<double>> rung_values_;
};

struct TuneMetrics {
  obs::Counter& attempts;
  obs::Counter& trials_completed;
  obs::Counter& transient_failures;
  obs::Counter& permanent_failures;
  obs::Counter& trials_failed;
  obs::Counter& retry_rounds;
  obs::Histogram& queue_wait_us;
  obs::Histogram& trial_us;

  static TuneMetrics& get() {
    auto& reg = obs::MetricsRegistry::instance();
    static TuneMetrics m{reg.counter("tune.attempts"),
                         reg.counter("tune.trials_completed"),
                         reg.counter("tune.transient_failures"),
                         reg.counter("tune.permanent_failures"),
                         reg.counter("tune.trials_failed"),
                         reg.counter("tune.retry_rounds"),
                         reg.histogram("tune.queue_wait_us"),
                         reg.histogram("tune.trial_us")};
    return m;
  }
};

class TrialReporter final : public Reporter {
 public:
  TrialReporter(Trial& trial, std::mutex& trial_mutex, AshaState* asha,
                std::string checkpoint_dir, int64_t start_iteration)
      : trial_(trial),
        trial_mutex_(trial_mutex),
        asha_(asha),
        checkpoint_dir_(std::move(checkpoint_dir)),
        start_iteration_(start_iteration) {}

  void report(int64_t iteration,
              const std::map<std::string, double>& metrics) override {
    // Inter-report wall times approximate per-epoch step time; their
    // max/median ratio is the per-trial straggler summary surfaced in
    // tune_table / save_tune_csv.
    const int64_t now_us = obs::Tracer::now_us();
    intervals_us_.push_back(static_cast<double>(now_us - last_report_us_));
    last_report_us_ = now_us;
    {
      const std::lock_guard<std::mutex> lock(trial_mutex_);
      trial_.iterations = iteration + 1;
      trial_.last_metrics = metrics;
      if (intervals_us_.size() >= 3) {
        std::vector<double> sorted = intervals_us_;
        std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                         sorted.end());
        const double median = sorted[sorted.size() / 2];
        const double worst =
            *std::max_element(intervals_us_.begin(), intervals_us_.end());
        if (median > 0.0) trial_.straggler_ratio = worst / median;
      }
    }
    if (asha_ != nullptr && !stop_) {
      const auto it = metrics.find(asha_->metric());
      DMIS_CHECK(it != metrics.end(),
                 "trial did not report ASHA metric '" << asha_->metric()
                                                      << "'");
      if (asha_->record_and_decide(iteration, it->second)) stop_ = true;
    }
  }

  bool should_stop() const override { return stop_; }

  const std::string& checkpoint_dir() const override {
    return checkpoint_dir_;
  }

  int64_t start_iteration() const override { return start_iteration_; }

 private:
  Trial& trial_;
  std::mutex& trial_mutex_;
  AshaState* asha_;
  std::string checkpoint_dir_;
  int64_t start_iteration_ = 0;
  bool stop_ = false;
  int64_t last_report_us_ = obs::Tracer::now_us();
  std::vector<double> intervals_us_;
};

}  // namespace

const Trial& TuneResult::best(const std::string& metric,
                              bool maximize) const {
  const Trial* best_trial = nullptr;
  double best_value = 0.0;
  for (const Trial& t : trials) {
    if (t.status != TrialStatus::kTerminated &&
        t.status != TrialStatus::kStopped) {
      continue;
    }
    const auto it = t.last_metrics.find(metric);
    if (it == t.last_metrics.end()) continue;
    const bool better =
        best_trial == nullptr ||
        (maximize ? it->second > best_value : it->second < best_value);
    if (better) {
      best_trial = &t;
      best_value = it->second;
    }
  }
  DMIS_CHECK(best_trial != nullptr,
             "no finished trial reported metric '" << metric << "'");
  return *best_trial;
}

int64_t TuneResult::count(TrialStatus status) const {
  return std::count_if(trials.begin(), trials.end(), [&](const Trial& t) {
    return t.status == status;
  });
}

int64_t TuneResult::transient_failures() const {
  int64_t n = 0;
  for (const Trial& t : trials) {
    n += static_cast<int64_t>(t.transient_errors.size());
  }
  return n;
}

TuneResult tune_run(const Trainable& trainable,
                    const std::vector<ParamSet>& configs,
                    const TuneOptions& options) {
  DMIS_CHECK(trainable != nullptr, "null trainable");
  DMIS_CHECK(!configs.empty(), "no configurations to tune");
  DMIS_CHECK(options.num_gpus >= 1, "need >= 1 GPU");
  DMIS_CHECK(options.retry.max_retries >= 0, "negative max_retries");
  DMIS_CHECK(options.retry.backoff_base >= 0.0 &&
                 options.retry.backoff_cap >= 0.0,
             "negative retry backoff");
  DMIS_CHECK(options.retry.jitter >= 0.0 && options.retry.jitter <= 1.0,
             "retry jitter must be in [0, 1], got " << options.retry.jitter);

  const int cpus =
      options.num_cpus > 0 ? options.num_cpus : options.num_gpus;
  // One worker thread per admissible concurrent trial.
  const int max_parallel = std::max(
      1, std::min(options.per_trial.gpus > 0
                      ? options.num_gpus / std::max(1, options.per_trial.gpus)
                      : static_cast<int>(configs.size()),
                  options.per_trial.cpus > 0
                      ? cpus / std::max(1, options.per_trial.cpus)
                      : static_cast<int>(configs.size())));

  TuneResult result;
  result.trials.resize(configs.size());
  std::mutex trials_mutex;

  // Durable sweep state (see sweep_ledger.hpp): with a checkpoint_root,
  // completed trials are recorded in a CRC-protected JSONL ledger, and
  // a restarted sweep adopts them instead of re-running.
  std::unique_ptr<SweepLedger> ledger;
  std::vector<bool> adopted(configs.size(), false);
  if (!options.checkpoint_root.empty()) {
    std::filesystem::create_directories(options.checkpoint_root);
    ledger = std::make_unique<SweepLedger>(options.checkpoint_root +
                                           "/sweep_ledger.jsonl");
  }

  for (size_t i = 0; i < configs.size(); ++i) {
    Trial& trial = result.trials[i];
    trial.id = static_cast<int>(i);
    trial.params = configs[i];
    if (!options.checkpoint_root.empty()) {
      trial.checkpoint_dir =
          options.checkpoint_root + "/trial_" + std::to_string(i);
      std::filesystem::create_directories(trial.checkpoint_dir);
      // A previous process that crashed mid-save leaves *.tmp files
      // behind (the destination file itself is always intact); sweep
      // them before this run starts writing its own.
      nn::sweep_stale_checkpoints(trial.checkpoint_dir);
    }
    if (ledger != nullptr) {
      // Adoption requires the fingerprint to still match: a ledger
      // entry from a different sweep definition at the same index is
      // ignored rather than trusted.
      const LedgerEntry* done =
          ledger->find(trial.id, param_set_str(configs[i]));
      if (done != nullptr) {
        trial.status = done->status == "STOPPED" ? TrialStatus::kStopped
                                                 : TrialStatus::kTerminated;
        trial.iterations = done->iterations;
        trial.last_metrics = done->metrics;
        adopted[i] = true;
        obs::MetricsRegistry::instance()
            .counter("tune.trials_adopted")
            .add(1);
        DMIS_LOG(kInfo) << "tune: adopting completed trial " << trial.id
                        << " from sweep ledger (" << done->status << ", "
                        << done->iterations << " iterations)";
      }
    }
  }

  std::unique_ptr<AshaState> asha;
  if (options.asha.has_value()) {
    asha = std::make_unique<AshaState>(*options.asha);
  }

  const int max_attempts = 1 + options.retry.max_retries;

  {
    RayLite cluster(Resources{options.num_gpus, cpus}, max_parallel);
    std::vector<size_t> pending;
    pending.reserve(configs.size());
    for (size_t i = 0; i < configs.size(); ++i) {
      if (!adopted[i]) pending.push_back(i);
    }

    // Round-based rescheduling: round 0 dispatches every trial; round
    // k > 0 redispatches the trials that failed round k-1 after an
    // exponentially growing delay. Trials that succeed are never
    // resubmitted, so the loop terminates after at most
    // 1 + max_retries rounds.
    TuneMetrics& metrics = TuneMetrics::get();
    // Jitter source for the retry backoff: many drivers that failed on
    // the same shared-resource hiccup must not wake in lockstep, so
    // each delay is shaved by a random fraction of up to `jitter`.
    std::mt19937_64 jitter_rng{std::random_device{}()};
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (int round = 0; !pending.empty(); ++round) {
      if (round > 0) {
        DMIS_TRACE_SPAN("tune.retry_backoff",
                        {{"round", round},
                         {"trials", static_cast<int64_t>(pending.size())}});
        metrics.retry_rounds.add(1);
        const double delay_s =
            std::min(options.retry.backoff_cap,
                     options.retry.backoff_base *
                         std::pow(2.0, static_cast<double>(round - 1))) *
            (1.0 - unit(jitter_rng) * options.retry.jitter);
        std::this_thread::sleep_for(std::chrono::duration<double>(delay_s));
      }

      std::vector<Future> futures;
      futures.reserve(pending.size());
      for (const size_t i : pending) {
        int attempt;
        {
          const std::lock_guard<std::mutex> lock(trials_mutex);
          attempt = ++result.trials[i].attempts;
        }
        metrics.attempts.add(1);
        const int64_t submit_us = obs::Tracer::now_us();
        futures.push_back(cluster.submit(
            options.per_trial, [&, i, attempt, submit_us]() -> std::any {
              // The queue-wait span begins at submission on the driver
              // thread and ends here on the worker, so it is recorded
              // with explicit timestamps rather than a guard.
              const int64_t start_us = obs::Tracer::now_us();
              obs::Tracer::instance().record_span(
                  "tune.queue_wait", submit_us, start_us - submit_us,
                  {{"trial", static_cast<int64_t>(i)}});
              metrics.queue_wait_us.observe(
                  static_cast<double>(start_us - submit_us));
              DMIS_TRACE_SPAN("tune.trial",
                              {{"trial", static_cast<int64_t>(i)},
                               {"attempt", attempt}});
              Trial& trial = result.trials[i];
              std::string ckpt_dir;
              int64_t start_iteration = 0;
              {
                const std::lock_guard<std::mutex> lock(trials_mutex);
                trial.status = TrialStatus::kRunning;
                ckpt_dir = trial.checkpoint_dir;
                // A retried attempt resumes after the last iteration
                // the previous attempt managed to report.
                start_iteration = trial.iterations;
              }
              TrialReporter reporter(trial, trials_mutex, asha.get(),
                                     std::move(ckpt_dir), start_iteration);
              try {
                trainable(configs[i], reporter);
                const std::lock_guard<std::mutex> lock(trials_mutex);
                trial.status = reporter.should_stop()
                                   ? TrialStatus::kStopped
                                   : TrialStatus::kTerminated;
              } catch (const std::exception& e) {
                const std::lock_guard<std::mutex> lock(trials_mutex);
                trial.status = TrialStatus::kFailed;
                trial.error = e.what();
                trial.permanent_error = is_permanent_failure(e);
              }
              metrics.trial_us.observe(
                  static_cast<double>(obs::Tracer::now_us() - start_us));
              return {};
            }));
      }

      std::vector<size_t> failed;
      for (size_t k = 0; k < pending.size(); ++k) {
        const size_t i = pending[k];
        try {
          (void)futures[k].get();
        } catch (const std::exception& e) {
          // The worker died before/around the trainable (injected
          // preemption): the task body never recorded the failure.
          const std::lock_guard<std::mutex> lock(trials_mutex);
          result.trials[i].status = TrialStatus::kFailed;
          result.trials[i].error = e.what();
          result.trials[i].permanent_error = is_permanent_failure(e);
        }
        std::optional<LedgerEntry> completed;
        {
          const std::lock_guard<std::mutex> lock(trials_mutex);
          Trial& trial = result.trials[i];
          // kFailed marks this attempt failed; it sticks unless the
          // trial is rescheduled below.
          if (trial.status != TrialStatus::kFailed) {
            metrics.trials_completed.add(1);
            if (ledger != nullptr) {
              LedgerEntry entry;
              entry.id = trial.id;
              entry.status = trial_status_name(trial.status);
              entry.iterations = trial.iterations;
              entry.params = param_set_str(configs[i]);
              entry.metrics = trial.last_metrics;
              completed = std::move(entry);
            }
          } else if (trial.permanent_error && options.retry.max_retries > 0) {
            // Retrying a permanent error reproduces it; fail now and
            // leave the retry budget to failures that can heal.
            metrics.permanent_failures.add(1);
            metrics.trials_failed.add(1);
          } else if (trial.attempts < max_attempts) {
            metrics.transient_failures.add(1);
            trial.transient_errors.push_back(std::move(trial.error));
            trial.error.clear();
            trial.status = TrialStatus::kPending;
            failed.push_back(i);
          } else {
            metrics.trials_failed.add(1);  // retry budget exhausted
          }
        }
        // The durable append runs outside trials_mutex so a (fsync'd)
        // ledger rewrite never stalls reporters of running trials.
        if (completed.has_value()) ledger->record(*completed);
      }
      pending = std::move(failed);
    }
  }
  return result;
}

}  // namespace dmis::ray
