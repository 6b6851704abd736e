// Rolling time-series instrument: a fixed-window histogram.
//
// The registry instruments in metrics.hpp are cumulative — perfect for
// post-mortem reconciliation, useless for "what is happening *now*" in
// a multi-hour sweep. RollingHistogram covers the live side: it keeps a
// ring of fixed-width time slots spanning a window (default 60 s in 12
// slots) and answers windowed queries — observations/sec over the
// window, streaming quantiles of the last minute's observations — that
// feed the /metrics exporter, the straggler detector and dmis_top.
//
// Updates and queries take a per-instrument mutex; both are O(slots).
// That is deliberate: rolling instruments sit at step/request
// granularity (tens of Hz), not per-element, so a handful of nanoseconds
// of locking buys exact window semantics that are trivially race-free
// under TSan. The cumulative hot-path instruments stay lock-free.
//
// Register through MetricsRegistry::rolling_histogram() to have it
// exported (Prometheus text, JSONL dump, flight recorder), or construct
// standalone instances for local use (the straggler detector's per-rank
// decision state).
//
// Every method has an `_at(now_us, ...)` twin taking an explicit
// timestamp so tests can drive the window deterministically; the
// timestamp-free forms stamp obs::Tracer::now_us().
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace dmis::obs {

inline constexpr int64_t kDefaultRollingWindowUs = 60'000'000;  // 60 s
inline constexpr int kDefaultRollingSlots = 12;                 // 5 s each

/// Windowed fixed-bucket histogram with streaming quantile queries.
/// Bucket semantics match obs::Histogram (bounds are ascending upper
/// limits plus one implicit overflow bucket); quantiles interpolate
/// linearly inside the winning bucket, exactly like the exporter-side
/// Histogram::quantile_from().
class RollingHistogram {
 public:
  RollingHistogram(std::string name, std::vector<double> bounds,
                   int64_t window_us = kDefaultRollingWindowUs,
                   int slots = kDefaultRollingSlots);

  void observe(double v);
  void observe_at(int64_t now_us, double v);

  /// Observations still inside the window.
  int64_t windowed_count() const;
  int64_t windowed_count_at(int64_t now_us) const;

  /// Observations/sec over the covered span: the window, or the
  /// instrument's age while younger than one window (so early rates
  /// are not diluted by empty future slots).
  double rate_per_sec() const;
  double rate_at(int64_t now_us) const;

  /// q-quantile (q in [0, 1]) of the windowed observations; 0 when the
  /// window is empty.
  double quantile(double q) const;
  double quantile_at(int64_t now_us, double q) const;

  /// Per-bucket (non-cumulative) counts merged over the window;
  /// bounds().size() + 1 entries, overflow last.
  std::vector<int64_t> windowed_buckets() const;
  std::vector<int64_t> windowed_buckets_at(int64_t now_us) const;

  const std::vector<double>& bounds() const { return bounds_; }
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  void reset();

  size_t advance_locked(int64_t now_us) const;
  double covered_seconds_locked(int64_t now_us) const;
  std::vector<int64_t> merged_locked(int64_t now_us) const;

  std::string name_;
  std::vector<double> bounds_;
  int64_t slot_us_;
  int n_slots_;
  mutable std::mutex mutex_;
  // frame f holds bucket counts for absolute slot frame_index_[f].
  mutable std::vector<std::vector<int64_t>> frames_;
  mutable std::vector<int64_t> frame_index_;
  mutable std::vector<int64_t> frame_count_;  // total per frame
  int64_t created_us_;
};

}  // namespace dmis::obs
