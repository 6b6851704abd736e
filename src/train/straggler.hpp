// Cross-rank straggler detection for data-parallel training.
//
// Each replica feeds its per-step wall time and gradient-sync wait time
// into per-rank rolling histograms (obs/rolling.hpp); at epoch
// boundaries the detector compares the ranks' windowed p50 step times.
// When the slowest rank's p50 exceeds the median of all ranks' p50s by
// a configurable factor (DMIS_STRAGGLER_FACTOR, default 2.0) the
// detector flags it: `train.straggler.*` metrics update and a warning
// is logged with the offending rank and ratio. A straggler that slow
// stalls every peer at the allreduce barrier, so the whole group trains
// at the laggard's pace — exactly the asymmetric-node failure mode the
// paper's cluster tuning runs hit.
//
// The decision state is detector-owned (deterministic under the `_at`
// test hooks, immune to registry resets); every observation is also
// mirrored into registry rolling histograms `train.rank_step_us.r<k>` /
// `train.rank_wait_us.r<k>` so the /metrics exporter serves live
// per-rank p50/p99 — the rank columns in dmis_top.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/rolling.hpp"

namespace dmis::train {

struct StragglerOptions {
  /// Flag when worst-rank p50 >= threshold * median p50.
  double threshold = 2.0;
  /// Windowed samples every rank needs before a verdict (avoids flagging
  /// off warmup noise).
  int64_t min_samples = 8;
  /// Rolling window the comparison runs over.
  int64_t window_us = 60'000'000;

  /// threshold from DMIS_STRAGGLER_FACTOR (unset keeps the default;
  /// anything but a finite number > 1.0 throws InvalidArgument).
  static StragglerOptions from_env();
};

class StragglerDetector {
 public:
  explicit StragglerDetector(int world,
                             StragglerOptions opts = StragglerOptions::from_env());

  /// One training step's wall time on `rank`, microseconds.
  void record_step(int rank, double us);
  void record_step_at(int64_t now_us, int rank, double us);

  /// One step's gradient-sync wait on `rank`, microseconds. Not part of
  /// the verdict, but reported alongside it: a straggler's *peers* show
  /// inflated wait while the straggler itself does not.
  void record_wait(int rank, double us);
  void record_wait_at(int64_t now_us, int rank, double us);

  struct Report {
    bool flagged = false;
    bool decided = false;   ///< false -> not enough samples / world < 2
    int rank = -1;          ///< slowest rank (when decided)
    double ratio = 0.0;     ///< worst p50 / median p50
    double worst_p50 = 0.0;
    double median_p50 = 0.0;
    double worst_wait_p50 = 0.0;  ///< wait p50 of the slowest rank
  };

  /// Compares the ranks' windowed step p50s; updates
  /// train.straggler.{checks,flags} counters and .{ratio,rank} gauges,
  /// and logs a warning when flagged.
  Report check();
  Report check_at(int64_t now_us);

  int world() const { return world_; }
  const StragglerOptions& options() const { return opts_; }

 private:
  int world_;
  StragglerOptions opts_;
  // Detector-owned decision state...
  std::vector<std::unique_ptr<obs::RollingHistogram>> step_;
  std::vector<std::unique_ptr<obs::RollingHistogram>> wait_;
  // ...and the registry-owned export mirrors feeding /metrics.
  std::vector<obs::RollingHistogram*> step_export_;
  std::vector<obs::RollingHistogram*> wait_export_;
};

}  // namespace dmis::train
