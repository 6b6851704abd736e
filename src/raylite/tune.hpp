// Tune: distributed hyper-parameter tuning (the Ray.Tune stand-in).
//
// Matches the paper's adaptation requirements (section III-B2): the user
// wraps training in a "trainable" function taking the hyper-parameter
// dictionary, and reports progress through a callback object. tune_run
// then executes the batch of experiments over the cluster, one GPU per
// trial by default.
//
// Trial schedulers: FIFO (Tune's default queue — what the paper
// benchmarks) and ASHA (asynchronous successive halving) early stopping
// as the extension the paper's future work points toward.
//
// Fault tolerance (Ray Tune's checkpoint-based trial recovery):
// a trial that throws a *transient* error (injected fault, I/O error,
// comm timeout / peer failure) is rescheduled with jittered exponential
// backoff under the RetryPolicy, handing the new attempt the trial's
// checkpoint directory and the iteration the last attempt durably
// reached, so the trainable resumes instead of restarting. *Permanent*
// errors (invalid configuration, deliberately aborted comm group) land
// in kFailed immediately. A trial whose retry budget runs dry (with
// retries disabled: whose only attempt threw) lands in kFailed too.
//
// Sweep-level crash recovery: with a checkpoint_root, every completed
// trial is also recorded in `<checkpoint_root>/sweep_ledger.jsonl`
// (see sweep_ledger.hpp — CRC-protected, atomically rewritten). A
// tune_run restarted over the same root and configurations adopts the
// recorded trials — same status, iterations, and final metrics, same
// checkpoint directories — and only dispatches the unfinished rest, so
// a killed driver process loses at most in-flight trials, never
// finished ones.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "raylite/raylite.hpp"
#include "raylite/search_space.hpp"

namespace dmis::ray {

enum class TrialStatus {
  kPending,
  kRunning,
  kTerminated,
  kStopped,
  kFailed,  ///< Threw on every attempt, or hit a permanent error.
};

const char* trial_status_name(TrialStatus s);

/// Handed to the trainable; the paper's "reporting callback function".
class Reporter {
 public:
  virtual ~Reporter() = default;

  /// Reports metrics at the end of `iteration` (0-based epoch).
  virtual void report(int64_t iteration,
                      const std::map<std::string, double>& metrics) = 0;

  /// True once the scheduler decided to early-stop this trial; the
  /// trainable should return promptly.
  virtual bool should_stop() const = 0;

  /// Directory reserved for this trial's checkpoints (empty when
  /// checkpointing is disabled). Stable across retry attempts.
  virtual const std::string& checkpoint_dir() const {
    static const std::string kEmpty;
    return kEmpty;
  }

  /// First iteration this attempt should execute: 0 on a fresh start,
  /// the last reported iteration count when resuming after a failure.
  /// A resuming trainable restores model state from checkpoint_dir()
  /// and skips the first start_iteration() epochs.
  virtual int64_t start_iteration() const { return 0; }
};

using Trainable = std::function<void(const ParamSet&, Reporter&)>;

struct Trial {
  int id = -1;
  ParamSet params;
  TrialStatus status = TrialStatus::kPending;
  int64_t iterations = 0;
  std::map<std::string, double> last_metrics;
  std::string error;

  /// Execution attempts so far (1 = never retried).
  int attempts = 0;
  /// The last error was classified permanent (see RetryPolicy): the
  /// trial went straight to kFailed without consuming retries.
  bool permanent_error = false;
  /// Error messages of attempts that failed and were rescheduled.
  std::vector<std::string> transient_errors;
  /// Per-trial checkpoint directory ("" when checkpointing is off).
  std::string checkpoint_dir;
  /// Max/median ratio of this trial's inter-report (per-epoch) wall
  /// times — a cheap straggler summary: ~1.0 for steady progress,
  /// large when one epoch stalled. 0 until three intervals exist.
  double straggler_ratio = 0.0;
};

/// ASHA configuration (Li et al., adapted): rungs at grace_period *
/// reduction_factor^k iterations; at each rung a trial continues only if
/// its metric is in the top 1/reduction_factor of results seen there.
struct AshaOptions {
  std::string metric = "val_dice";
  bool maximize = true;
  int64_t grace_period = 1;
  int64_t reduction_factor = 2;
  int64_t max_rungs = 10;
};

/// How failed trials are rescheduled. The delay before retry round k is
/// min(backoff_cap, backoff_base * 2^(k-1)) seconds, shrunk by a random
/// fraction of up to `jitter` so independent drivers that failed
/// together don't retry in lockstep (the classic retry-storm fix).
///
/// Not every failure is worth retrying: errors are *classified*.
/// Transient failures — injected faults, I/O errors, and
/// comm::CommError{kTimeout, kPeerFailed} (a slow or dead rank inside
/// the trial's data-parallel group) — are rescheduled with backoff.
/// Permanent failures — InvalidArgument (a bad configuration stays bad)
/// and comm::CommError{kAborted} (the group was deliberately killed) —
/// land in kFailed immediately without consuming the retry budget.
struct RetryPolicy {
  int max_retries = 0;        ///< Extra attempts per trial; 0 = fail fast.
  double backoff_base = 0.05; ///< Seconds before the first retry round.
  double backoff_cap = 2.0;   ///< Upper bound on any single delay.
  /// Max random fraction shaved off each delay: the actual wait is
  /// delay * (1 - u * jitter) with u uniform in [0, 1). 0 = none.
  double jitter = 0.25;
};

struct TuneOptions {
  int num_gpus = 1;             ///< Cluster GPU pool.
  int num_cpus = 0;             ///< 0 -> one CPU per GPU.
  Resources per_trial{1, 1};    ///< The paper: one GPU per experiment.
  std::optional<AshaOptions> asha;  ///< Unset -> FIFO (paper setting).
  RetryPolicy retry;            ///< Default: no retries (fail fast).
  /// When non-empty, trial i gets checkpoint dir
  /// `<checkpoint_root>/trial_<i>` (created by tune_run) and retried
  /// attempts are expected to resume from it. Also enables the durable
  /// sweep ledger at `<checkpoint_root>/sweep_ledger.jsonl`: completed
  /// trials are recorded there and adopted (not re-run) by a restarted
  /// tune_run over the same root, as long as the configuration at the
  /// same index still matches.
  std::string checkpoint_root;
};

struct TuneResult {
  std::vector<Trial> trials;

  /// Trial with the best `metric` among terminated trials.
  const Trial& best(const std::string& metric, bool maximize = true) const;

  int64_t count(TrialStatus status) const;

  /// Total failed-then-rescheduled attempts across all trials.
  int64_t transient_failures() const;
};

/// Runs every configuration through `trainable` on a RayLite cluster.
/// Trials are dispatched in order; each occupies `per_trial` resources.
/// Failed trials are rescheduled per `options.retry`.
TuneResult tune_run(const Trainable& trainable,
                    const std::vector<ParamSet>& configs,
                    const TuneOptions& options);

}  // namespace dmis::ray
