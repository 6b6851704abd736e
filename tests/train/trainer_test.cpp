#include "train/trainer.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "common/check.hpp"
#include "nn/checkpoint.hpp"
#include "tensor/rng.hpp"

namespace dmis::train {
namespace {

// Builds a tiny learnable dataset: bright cube on dark background, one
// channel, 8^3 volumes, with per-example noise.
std::vector<data::Example> cube_examples(int64_t n, uint64_t seed) {
  std::vector<data::Example> out;
  Rng rng(seed);
  const int64_t S = 8;
  for (int64_t id = 0; id < n; ++id) {
    data::Example ex;
    ex.id = id;
    ex.image = NDArray(Shape{1, S, S, S});
    ex.label = NDArray(Shape{1, S, S, S});
    const int64_t off = rng.uniform_int(1, 3);
    for (int64_t z = 0; z < S; ++z) {
      for (int64_t y = 0; y < S; ++y) {
        for (int64_t x = 0; x < S; ++x) {
          const bool inside = z >= off && z < off + 4 && y >= off &&
                              y < off + 4 && x >= off && x < off + 4;
          const int64_t i = (z * S + y) * S + x;
          ex.image[i] = (inside ? 1.0F : -1.0F) +
                        static_cast<float>(rng.normal(0.0, 0.1));
          ex.label[i] = inside ? 1.0F : 0.0F;
        }
      }
    }
    out.push_back(std::move(ex));
  }
  return out;
}

nn::UNet3dOptions tiny_model(uint64_t seed = 7) {
  nn::UNet3dOptions opts;
  opts.in_channels = 1;
  opts.base_filters = 2;
  opts.depth = 2;
  opts.seed = seed;
  return opts;
}

TEST(TrainerTest, LossDecreasesAndDiceRises) {
  nn::UNet3d model(tiny_model());
  TrainOptions opts;
  opts.epochs = 30;
  opts.lr = 5e-3;
  Trainer trainer(model, opts);
  data::BatchStream train(data::from_examples(cube_examples(6, 1)), 2);
  data::BatchStream val(data::from_examples(cube_examples(2, 99)), 2);
  const TrainReport report = trainer.fit(train, &val);
  ASSERT_EQ(report.history.size(), 30U);
  EXPECT_LT(report.history.back().train_loss,
            0.6 * report.history.front().train_loss);
  EXPECT_GT(report.best_val_dice, 0.7);
  EXPECT_EQ(report.history.front().steps, 3);  // ceil(6/2)
  EXPECT_EQ(report.total_steps, 90);
}

TEST(TrainerTest, CallbackCanStopEarly) {
  nn::UNet3d model(tiny_model());
  TrainOptions opts;
  opts.epochs = 50;
  Trainer trainer(model, opts);
  data::BatchStream train(data::from_examples(cube_examples(4, 2)), 2);
  int epochs_seen = 0;
  const TrainReport report =
      trainer.fit(train, nullptr, [&](const EpochStats& stats) {
        ++epochs_seen;
        return stats.epoch < 4;  // stop after 5 epochs
      });
  EXPECT_EQ(epochs_seen, 5);
  EXPECT_EQ(report.history.size(), 5U);
}

TEST(TrainerTest, CyclicLrFollowsTriangle) {
  nn::UNet3d model(tiny_model());
  TrainOptions opts;
  opts.epochs = 4;
  opts.lr = 1e-3;
  opts.cyclic = CyclicLrSpec{1e-4, 1e-3, 4};
  Trainer trainer(model, opts);
  data::BatchStream train(data::from_examples(cube_examples(4, 3)), 1);
  std::vector<double> lrs;
  trainer.fit(train, nullptr, [&](const EpochStats& stats) {
    lrs.push_back(stats.lr);
    return true;
  });
  ASSERT_EQ(lrs.size(), 4U);
  // 4 steps/epoch, half-cycle 4 steps: epoch ends alternate between the
  // rising flank (high) and the falling flank (low), period 2 epochs.
  EXPECT_GT(lrs[0], lrs[1]);
  EXPECT_DOUBLE_EQ(lrs[0], lrs[2]);
  EXPECT_DOUBLE_EQ(lrs[1], lrs[3]);
}

TEST(TrainerTest, QuadraticDiceAlsoTrains) {
  nn::UNet3d model(tiny_model());
  TrainOptions opts;
  opts.epochs = 20;
  opts.lr = 5e-3;
  opts.loss = "qdice";
  Trainer trainer(model, opts);
  data::BatchStream train(data::from_examples(cube_examples(4, 4)), 2);
  const TrainReport report = trainer.fit(train, nullptr);
  EXPECT_LT(report.history.back().train_loss,
            report.history.front().train_loss);
}

TEST(TrainerTest, EvaluateReturnsPerSampleMeanDice) {
  nn::UNet3d model(tiny_model());
  TrainOptions opts;
  Trainer trainer(model, opts);
  data::BatchStream val(data::from_examples(cube_examples(3, 5)), 2);
  const double dice = trainer.evaluate(val);
  EXPECT_GE(dice, 0.0);
  EXPECT_LE(dice, 1.0);
  // Stream usable again (reset happened).
  EXPECT_NEAR(trainer.evaluate(val), dice, 1e-12);
}

TEST(TrainerTest, CheckpointsBestWeights) {
  const auto path =
      std::filesystem::temp_directory_path() /
      ("dmis_trainer_ckpt_" + std::to_string(::getpid()) + ".bin");
  std::filesystem::remove(path);

  nn::UNet3d model(tiny_model(3));
  TrainOptions opts;
  opts.epochs = 8;
  opts.lr = 5e-3;
  opts.checkpoint_path = path.string();
  Trainer trainer(model, opts);
  data::BatchStream train(data::from_examples(cube_examples(4, 6)), 2);
  data::BatchStream val(data::from_examples(cube_examples(2, 60)), 2);
  const TrainReport report = trainer.fit(train, &val);
  ASSERT_TRUE(std::filesystem::exists(path));

  // Restoring into a fresh (differently seeded) model must reproduce
  // the checkpointed validation Dice — including the batch-norm running
  // statistics, which checkpoint_params() captures.
  nn::UNet3d restored(tiny_model(99));
  auto params = restored.checkpoint_params();
  nn::load_checkpoint(path.string(), params);
  data::BatchStream val2(data::from_examples(cube_examples(2, 60)), 2);
  const double dice = evaluate_dice(restored, val2);
  EXPECT_NEAR(dice, report.best_val_dice, 1e-6);
  std::filesystem::remove(path);
}

TEST(TrainerTest, RejectsBadOptions) {
  nn::UNet3d model(tiny_model());
  TrainOptions opts;
  opts.epochs = 0;
  EXPECT_THROW(Trainer(model, opts), InvalidArgument);
  TrainOptions bad_loss;
  bad_loss.loss = "focal";
  EXPECT_THROW(Trainer(model, bad_loss), InvalidArgument);
}

}  // namespace
}  // namespace dmis::train
