// Trainer: the single-device training loop.
//
// Drives one U-Net over a batched pipeline for a number of epochs:
// forward, Dice-family loss, backward, Adam step (optionally under
// a cyclic learning-rate schedule, as the paper uses when scaling the
// base rate), then a validation sweep computing the hard Dice score —
// the paper's correctness reference metric.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "nn/loss.hpp"
#include "nn/lr_schedule.hpp"
#include "nn/optim.hpp"
#include "nn/unet3d.hpp"

namespace dmis::train {

/// Triangular cyclic-LR configuration (paper section IV-B).
struct CyclicLrSpec {
  double base_lr = 1e-4;
  double max_lr = 1e-3;
  int64_t step_size = 100;  ///< optimizer steps per half-cycle
};

struct TrainOptions {
  int64_t epochs = 10;
  double lr = 1e-4;                    ///< paper: 1e-4 x #GPUs
  std::string loss = "dice";           ///< "dice" | "qdice"
  std::optional<CyclicLrSpec> cyclic;  ///< unset -> constant lr
  /// When set (and a validation stream exists), the parameters are
  /// checkpointed here every time validation Dice improves. Only Trainer
  /// honours it; the multi-replica strategies reject a non-empty path.
  std::string checkpoint_path;
};

struct EpochStats {
  int64_t epoch = 0;          ///< 0-based
  double train_loss = 0.0;    ///< mean over steps
  int64_t steps = 0;
  std::optional<double> val_dice;  ///< set when a validation stream exists
  double lr = 0.0;            ///< lr at the last step of the epoch
};

struct TrainReport {
  std::vector<EpochStats> history;
  double best_val_dice = 0.0;
  int64_t total_steps = 0;
};

/// Per-epoch observer (metrics reporting, early stopping, ...). Return
/// false to stop training after the current epoch.
using EpochCallback = std::function<bool(const EpochStats&)>;

/// Mean per-sample hard Dice of `model` over `val` (eval mode). The
/// stream is reset afterwards so it can be reused next epoch.
double evaluate_dice(nn::UNet3d& model, data::BatchStream& val);

class Trainer {
 public:
  /// Borrows `model`; the caller keeps ownership and the trained weights.
  Trainer(nn::UNet3d& model, const TrainOptions& options);

  /// Trains over `train` (reset each epoch); evaluates on `val` per
  /// epoch when provided.
  TrainReport fit(data::BatchStream& train, data::BatchStream* val,
                  const EpochCallback& callback = nullptr);

  /// Mean hard-Dice over a validation stream (model in eval mode).
  double evaluate(data::BatchStream& val);

  nn::Optimizer& optimizer() { return *optimizer_; }

 private:
  nn::UNet3d& model_;
  TrainOptions options_;
  std::unique_ptr<nn::Loss> loss_;
  std::unique_ptr<nn::Optimizer> optimizer_;
  std::unique_ptr<nn::LrSchedule> schedule_;
};

}  // namespace dmis::train
