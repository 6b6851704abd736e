// sweep: experiment parallelism — a FIFO ray::tune_run over worker slots,
// each trial a single-replica train::Trainer::fit with per-epoch
// validation and best-checkpoint saves.
#include <filesystem>
#include <mutex>

#include "core/pipeline.hpp"
#include "harness.hpp"

namespace dmis::bench {
namespace {

struct SweepShape {
  int64_t phantom_depth;
  int64_t height;
  int64_t width;
  int64_t subjects;
  int trials;
  int64_t epochs;
  double dice_floor;
};

constexpr int kSlots = 4;
constexpr int64_t kBatch = 2;

class SweepWorkload final : public Workload {
 public:
  SweepWorkload(const RunConfig& config, const SweepShape& shape)
      : config_(config), shape_(shape) {
    // base_filters cycles 2/4/8 (trial lengths differ, so slot packing
    // and the last trial's tail show), the lr ladder steps every three
    // trials and augmentation alternates.
    const double lrs[] = {3e-3, 1.5e-3, 6e-3, 1e-3};
    for (int i = 0; i < shape_.trials; ++i) {
      core::ExperimentConfig cfg;
      cfg.base_filters = int64_t{2} << (i % 3);
      cfg.lr = lrs[(i / 3) % 4];
      cfg.augment = i % 2 == 1;
      configs_.push_back(cfg.to_params());
    }
  }

  void setup() override {
    pipeline_.reset();
    const std::string dir = config_.work_dir + "/sweep";
    std::filesystem::remove_all(dir);
    core::PipelineOptions po;
    po.work_dir = dir + "/data";
    po.num_subjects = shape_.subjects;
    po.phantom.depth = shape_.phantom_depth;
    po.phantom.height = shape_.height;
    po.phantom.width = shape_.width;
    po.phantom.seed = derive_seed(config_.seed, 1);
    po.seed = derive_seed(config_.seed, 2);
    po.model_depth = 3;
    pipeline_ = std::make_unique<core::DistMisPipeline>(po);
    pipeline_->prepare();
    sweeps_ = 0;
    results_.clear();
  }

  PhaseResult run(double seconds) override {
    PhaseResult r;
    const Clock::time_point start = Clock::now();
    double sweep_s = 0.0;
    do {
      const Clock::time_point t0 = Clock::now();
      ray::TuneResult result;
      {
        DMIS_TRACE_SPAN("bench.sweep", {{"sweep", sweeps_}});
        result = run_sweep();
      }
      sweep_s = seconds_since(t0);
      r.busy_s += sweep_s;
      for (const ray::Trial& t : result.trials) {
        r.work += static_cast<double>(t.iterations);
        ++r.attempted;
        if (t.status != ray::TrialStatus::kTerminated) ++r.failed;
      }
      results_.push_back(std::move(result));
      // Stop once another sweep would overrun the budget by more than
      // half a sweep.
    } while (seconds_since(start) + sweep_s / 2.0 < seconds);
    const std::lock_guard<std::mutex> lock(mutex_);
    r.latency_ms = std::move(epoch_ms_);
    epoch_ms_.clear();
    return r;
  }

  void check(std::vector<std::string>& failures) override {
    for (size_t s = 0; s < results_.size(); ++s) {
      const ray::TuneResult& result = results_[s];
      const int64_t done = result.count(ray::TrialStatus::kTerminated);
      if (done != shape_.trials) {
        failures.push_back("sweep " + std::to_string(s) + ": " +
                           std::to_string(done) + "/" +
                           std::to_string(shape_.trials) +
                           " trials terminated");
        continue;
      }
      // Same seed, same sweep: every repetition must pick the same best
      // trial with the same Dice.
      if (best_dice(result) != best_dice(results_.front())) {
        failures.push_back("sweep " + std::to_string(s) +
                           ": best val_dice differs from the first sweep");
      }
    }
    if (!(dice() >= shape_.dice_floor)) {
      failures.push_back("sweep: best val_dice " + std::to_string(dice()) +
                         " below floor " + std::to_string(shape_.dice_floor));
    }
  }

  double dice() const override {
    return results_.empty() ? 0.0 : best_dice(results_.front());
  }

  ProbeSpec probe_spec() const override {
    core::ExperimentConfig cfg;
    cfg.base_filters = 4;
    cfg.seed = derive_seed(config_.seed, 3);
    ProbeSpec spec;
    spec.model = pipeline_->model_options(cfg);
    const Shape& image = pipeline_->prepared().image_shape;
    spec.batch = kBatch;
    spec.depth = image.dim(1);
    spec.height = image.dim(2);
    spec.width = image.dim(3);
    return spec;
  }

  LayerBasis basis() const override { return LayerBasis{0, kSlots}; }

 private:
  static double best_dice(const ray::TuneResult& result) {
    return result.best("val_dice").last_metrics.at("val_dice");
  }

  ray::TuneResult run_sweep() {
    const auto trainable = [this](const ray::ParamSet& params,
                                  ray::Reporter& reporter) {
      core::ExperimentConfig cfg = core::ExperimentConfig::from_params(params);
      cfg.seed = derive_seed(config_.seed, 3);
      nn::UNet3d model(pipeline_->model_options(cfg));
      train::TrainOptions topt;
      topt.epochs = shape_.epochs;
      topt.lr = cfg.lr;
      topt.checkpoint_path = reporter.checkpoint_dir() + "/best.ckpt";
      train::Trainer trainer(model, topt);
      StepLog log;
      data::BatchStream train(
          std::make_unique<TimedStream>(pipeline_->train_stream(cfg.augment),
                                        kBatch, 1, &log),
          kBatch);
      data::BatchStream val(pipeline_->val_stream(), kBatch);
      std::vector<double> epoch_ms;
      Clock::time_point last = Clock::now();
      DMIS_TRACE_SPAN("bench.fit");
      trainer.fit(train, &val, [&](const train::EpochStats& stats) {
        epoch_ms.push_back(seconds_since(last) * 1000.0);
        last = Clock::now();
        reporter.report(stats.epoch,
                        {{"train_loss", stats.train_loss},
                         {"val_dice", stats.val_dice.value_or(0.0)}});
        return !reporter.should_stop();
      });
      const std::lock_guard<std::mutex> lock(mutex_);
      epoch_ms_.insert(epoch_ms_.end(), epoch_ms.begin(), epoch_ms.end());
    };
    ray::TuneOptions topts;
    topts.num_gpus = kSlots;
    topts.per_trial = ray::Resources{1, 1};
    // A fresh root per sweep: the ledger would otherwise adopt the
    // previous sweep's trials instead of running them.
    topts.checkpoint_root = config_.work_dir + "/sweep/run_" +
                            std::to_string(sweeps_++);
    return ray::tune_run(trainable, configs_, topts);
  }

  RunConfig config_;
  SweepShape shape_;
  std::vector<ray::ParamSet> configs_;
  std::unique_ptr<core::DistMisPipeline> pipeline_;
  int sweeps_ = 0;
  std::vector<ray::TuneResult> results_;
  std::mutex mutex_;
  std::vector<double> epoch_ms_;  // guarded by mutex_
};

}  // namespace

std::unique_ptr<Workload> make_sweep(const RunConfig& config) {
  SweepShape shape{11, 16, 16, 48, 12, 4, 0.75};
  if (config.smoke) shape = {11, 16, 16, 12, 4, 1, 0.0};
  return std::make_unique<SweepWorkload>(config, shape);
}

}  // namespace dmis::bench
