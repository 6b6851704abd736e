// Shared pieces of the end-to-end benchmark (dmis_bench): run settings,
// what a measured phase returns, the workload interface, the step-period
// stream wrapper, the one-thread layer probe and the trace summary.
//
// The benchmark drives the library only through its public entry points;
// every span it adds is named bench.* and recorded from these files.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "nn/infer.hpp"
#include "nn/unet3d.hpp"
#include "obs/trace.hpp"

namespace dmis::bench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);

/// Linearly interpolated percentile, q in [0, 100]; 0 for no values.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// Derives an independent 64-bit seed for one input stream (phantom
/// data, model init, arrivals, ...) from the run seed.
uint64_t derive_seed(uint64_t run_seed, uint64_t stream);

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// Toy sizes for a quick functional check of every path.
  bool smoke = false;
  /// Scratch directory owned by this process (removed at exit).
  std::string work_dir;
};

/// What one measured phase produced.
struct PhaseResult {
  double work = 0.0;    ///< Units counted by the throughput metric.
  double busy_s = 0.0;  ///< Time those units took.
  std::vector<double> latency_ms;
  int64_t attempted = 0;
  int64_t failed = 0;
  double gen_late_ms_max = 0.0;  ///< Open-loop sender lateness (serve).

  void merge(const PhaseResult& other);
  double throughput() const { return busy_s > 0.0 ? work / busy_s : 0.0; }
};

/// Model and per-replica input shape the layer probe times.
struct ProbeSpec {
  nn::UNet3dOptions model;
  int64_t batch = 1;
  int64_t depth = 16;
  int64_t height = 16;
  int64_t width = 16;
};

/// Workload facts the per-layer metrics are normalised by.
struct LayerBasis {
  int dp_world = 0;    ///< Replicas per data-parallel step (train_* only).
  int tune_slots = 0;  ///< Concurrent trial slots (sweep only).
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds everything the measured phase needs from scratch, including
  /// data generation and a short warm-up. Timed; run several times.
  virtual void setup() = 0;

  /// Runs the workload for about `seconds` and reports what it measured.
  virtual PhaseResult run(double seconds) = 0;

  /// Output-correctness checks after measurement; appends one line per
  /// failed check.
  virtual void check(std::vector<std::string>& failures) = 0;

  /// The workload's quality number (see README: Dice on validation data
  /// for training and the sweep, served-vs-reference Dice for serving).
  virtual double dice() const = 0;

  virtual ProbeSpec probe_spec() const = 0;
  virtual LayerBasis basis() const = 0;
};

std::unique_ptr<Workload> make_train_fullvol(const RunConfig& config);
std::unique_ptr<Workload> make_train_widepatch(const RunConfig& config);
std::unique_ptr<Workload> make_sweep(const RunConfig& config);
std::unique_ptr<Workload> make_serve_mixed(const RunConfig& config);

/// The serving model: base 4, depth 3, fresh weights from `seed`.
nn::UNet3dOptions serve_model_options(uint64_t seed);

/// Serving tiles: volumes above 32^3 voxels go through sliding-window
/// inference with 32^3 cores.
constexpr int64_t kServeVoxelBudget = 32 * 32 * 32;
nn::SlidingWindowOptions serve_sliding_window();

/// Step periods of a training stream, as its consumer sees them.
struct StepLog {
  std::vector<double> period_ms;
  int64_t samples = 0;  ///< Samples in the logged steps.
};

/// Wraps the ExampleStream handed to a BatchStream. A step begins at the
/// first pull of a global batch and ends at the first pull of the next
/// one (or at the last pull before reset(), for the final step of an
/// epoch), so a period covers the batch's input wait plus the training
/// step. Each period is also recorded as a bench.step span.
class TimedStream final : public data::ExampleStream {
 public:
  TimedStream(data::StreamPtr inner, int64_t batch_size, int ranks,
              StepLog* log);

  std::optional<data::Example> next() override;
  void reset() override;
  int64_t size_hint() const override { return inner_->size_hint(); }

 private:
  void close_step(int64_t end_us);

  data::StreamPtr inner_;
  int64_t batch_size_;
  int ranks_;
  StepLog* log_;
  int64_t pulled_ = 0;          ///< Examples pulled this epoch.
  int64_t step_begin_us_ = -1;  ///< First pull of the open step.
  int64_t step_samples_ = 0;
  int64_t last_pull_us_ = 0;
};

/// One-thread layer probe: median of 20 calls after 3 warm-ups, each
/// call issued from the probing thread (kernels still use the pool).
struct ProbeResult {
  double fwd_ms = 0.0;
  double bwd_ms = 0.0;
  double optim_ms = 0.0;
  double fwd_gflops = 0.0;
  double infer_ms = 0.0;   ///< Serving model, 16x24x24 eval forward.
  double window_ms = 0.0;  ///< Serving model, 32x48x48 sliding window.
  double checkpoint_save_ms = 0.0;
  double samples_per_s = 0.0;  ///< One replica: batch / (fwd+bwd+optim).
};

ProbeResult run_probe(const ProbeSpec& spec, const std::string& work_dir,
                      uint64_t seed, int reps);

/// Per-span-name totals of a trace. Self time is the span's duration
/// minus the part covered by spans nested inside it on the same thread.
struct SpanStats {
  int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  double max_ms = 0.0;
  int64_t arg_sum[obs::TraceEvent::kMaxArgs] = {};  ///< Per arg slot.
};

std::map<std::string, SpanStats> summarize_spans(
    const std::vector<obs::TraceEvent>& events);

}  // namespace dmis::bench
