// train_fullvol and train_widepatch: data-parallel U-Net training through
// core::DistMisPipeline and train::MirroredStrategy::fit.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>

#include "core/pipeline.hpp"
#include "harness.hpp"

namespace dmis::bench {
namespace {

struct TrainShape {
  const char* name;
  int64_t phantom_depth;  ///< Raw depth; the crop removes 3 voxels.
  int64_t height;
  int64_t width;
  int64_t subjects;
  int64_t base_filters;
  double lr;  ///< Per replica; the strategy scales it by the world size.
  /// The reported Dice is the best validation Dice over this many
  /// measured epochs, so it does not depend on how fast the host is.
  int dice_epoch;
  double dice_floor;
};

constexpr int kWorld = 4;
constexpr int64_t kGlobalBatch = 4;
constexpr int kDepth = 3;

class TrainWorkload final : public Workload {
 public:
  TrainWorkload(const RunConfig& config, const TrainShape& shape)
      : config_(config), shape_(shape) {}

  void setup() override {
    // Tear down the previous repetition so each one pays for data
    // generation, binarization and replica construction again.
    train_.reset();
    val_.reset();
    strategy_.reset();
    pipeline_.reset();
    const std::string dir = config_.work_dir + "/" + shape_.name;
    std::filesystem::remove_all(dir);

    core::PipelineOptions po;
    po.work_dir = dir;
    po.num_subjects = shape_.subjects;
    po.phantom.depth = shape_.phantom_depth;
    po.phantom.height = shape_.height;
    po.phantom.width = shape_.width;
    po.phantom.seed = derive_seed(config_.seed, 1);
    po.seed = derive_seed(config_.seed, 2);
    po.model_depth = kDepth;
    pipeline_ = std::make_unique<core::DistMisPipeline>(po);
    pipeline_->prepare();

    core::ExperimentConfig cfg;
    cfg.base_filters = shape_.base_filters;
    cfg.seed = derive_seed(config_.seed, 3);
    train::MirroredOptions mo;
    mo.num_replicas = kWorld;
    mo.train.epochs = 1'000'000;  // run() stops at an epoch boundary
    mo.train.lr = shape_.lr;
    strategy_ = std::make_unique<train::MirroredStrategy>(
        pipeline_->model_options(cfg), mo);

    // Warm-up: two optimizer steps on a separate two-batch stream.
    data::BatchStream warm(
        data::take(pipeline_->train_stream(false), 2 * kGlobalBatch),
        kGlobalBatch);
    strategy_->fit(warm, nullptr, [](const train::EpochStats&) {
      return false;
    });

    train_ = std::make_unique<data::BatchStream>(
        std::make_unique<TimedStream>(pipeline_->train_stream(false),
                                      kGlobalBatch, kWorld, &log_),
        kGlobalBatch);
    val_ = std::make_unique<data::BatchStream>(pipeline_->val_stream(),
                                               kGlobalBatch);
    epochs_ = 0;
    dice_ = 0.0;
    last_loss_ = 0.0;
  }

  PhaseResult run(double seconds) override {
    log_ = StepLog{};
    const Clock::time_point start = Clock::now();
    strategy_->fit(*train_, nullptr, [&](const train::EpochStats& stats) {
      ++epochs_;
      last_loss_ = stats.train_loss;
      if (epochs_ <= shape_.dice_epoch) {
        dice_ = std::max(dice_,
                         train::evaluate_dice(strategy_->model(), *val_));
      }
      return !(seconds_since(start) >= seconds &&
               epochs_ >= shape_.dice_epoch);
    });
    PhaseResult r;
    r.work = static_cast<double>(log_.samples);
    for (const double ms : log_.period_ms) r.busy_s += ms / 1000.0;
    r.latency_ms = log_.period_ms;
    r.attempted = static_cast<int64_t>(log_.period_ms.size());
    return r;
  }

  void check(std::vector<std::string>& failures) override {
    // The mirrored-variable invariant: identical trainable parameters
    // on every replica after fit().
    std::vector<nn::Param> ref = strategy_->replica(0).params();
    for (int rank = 1; rank < kWorld; ++rank) {
      std::vector<nn::Param> other = strategy_->replica(rank).params();
      for (size_t i = 0; i < ref.size(); ++i) {
        const NDArray& a = *ref[i].value;
        const NDArray& b = *other[i].value;
        if (a.numel() != b.numel() ||
            std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.numel()) * sizeof(float)) !=
                0) {
          failures.push_back(std::string(shape_.name) + ": replica " +
                             std::to_string(rank) + " parameter '" +
                             ref[i].name + "' differs from rank 0");
          return;
        }
      }
    }
    if (!std::isfinite(last_loss_)) {
      failures.push_back(std::string(shape_.name) + ": final loss is not finite");
    }
    if (!(dice_ >= shape_.dice_floor)) {
      failures.push_back(std::string(shape_.name) + ": val_dice " +
                         std::to_string(dice_) + " below floor " +
                         std::to_string(shape_.dice_floor));
    }
  }

  double dice() const override { return dice_; }

  ProbeSpec probe_spec() const override {
    ProbeSpec spec;
    core::ExperimentConfig cfg;
    cfg.base_filters = shape_.base_filters;
    cfg.seed = derive_seed(config_.seed, 3);
    spec.model = pipeline_->model_options(cfg);
    const Shape& image = pipeline_->prepared().image_shape;  // (C, D, H, W)
    spec.batch = kGlobalBatch / kWorld;
    spec.depth = image.dim(1);
    spec.height = image.dim(2);
    spec.width = image.dim(3);
    return spec;
  }

  LayerBasis basis() const override { return LayerBasis{kWorld, 0}; }

 private:
  RunConfig config_;
  TrainShape shape_;
  std::unique_ptr<core::DistMisPipeline> pipeline_;
  std::unique_ptr<train::MirroredStrategy> strategy_;
  StepLog log_;
  std::unique_ptr<data::BatchStream> train_;
  std::unique_ptr<data::BatchStream> val_;
  int epochs_ = 0;
  double dice_ = 0.0;
  double last_loss_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_train_fullvol(const RunConfig& config) {
  // Full-volume DP step: convolution compute dominates, gradients are
  // small (25k parameters), the ragged last batch leaves ranks idle.
  TrainShape shape{"train_fullvol", 19, 32, 32, 48, 4, 3e-3, 14, 0.8};
  if (config.smoke) shape = {"train_fullvol", 11, 16, 16, 16, 2, 1.5e-3, 1, 0.0};
  return std::make_unique<TrainWorkload>(config, shape);
}

std::unique_ptr<Workload> make_train_widepatch(const RunConfig& config) {
  // Small patches through a wide model: short steps that each move
  // ~3.6 MB of gradients per rank, so comm, bucketing, the optimizer
  // and per-step thread spawn carry a large share of the step.
  TrainShape shape{"train_widepatch", 11, 8, 8, 96, 24, 1.5e-3, 12, 0.85};
  if (config.smoke) shape = {"train_widepatch", 11, 8, 8, 16, 4, 1.5e-3, 1, 0.0};
  return std::make_unique<TrainWorkload>(config, shape);
}

}  // namespace dmis::bench
