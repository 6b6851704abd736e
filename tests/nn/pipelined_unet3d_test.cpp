#include "nn/pipelined_unet3d.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "nn/loss.hpp"
#include "nn/optim.hpp"
#include "tensor/rng.hpp"

namespace dmis::nn {
namespace {

UNet3dOptions tiny(bool batch_norm = false, uint64_t seed = 21) {
  UNet3dOptions opts;
  opts.in_channels = 1;
  opts.base_filters = 2;
  opts.depth = 3;  // two skips cross the stage cut
  opts.seed = seed;
  opts.norm = batch_norm ? NormKind::kBatch : NormKind::kNone;
  return opts;
}

NDArray random_batch(int64_t n, uint64_t seed) {
  NDArray x(Shape{n, 1, 4, 4, 4});
  Rng rng(seed);
  for (int64_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.normal());
  }
  return x;
}

TEST(PipelinedUNet3dTest, SameParameterCountAsMonolithic) {
  UNet3d mono(tiny());
  PipelinedUNet3d piped(tiny(), 2);
  EXPECT_EQ(piped.num_params(), mono.num_params());
}

TEST(PipelinedUNet3dTest, InitializationMatchesMonolithic) {
  // Same seed, same RNG consumption order -> identical weights, so the
  // untrained forward passes must agree exactly.
  UNet3d mono(tiny());
  PipelinedUNet3d piped(tiny(), 2);
  const NDArray x = random_batch(4, 3);
  const NDArray mono_out = mono.forward(x, false);
  const NDArray piped_out = piped.forward(x, false);
  EXPECT_TRUE(piped_out.allclose(mono_out, 1e-6F));
}

TEST(PipelinedUNet3dTest, MicrobatchCountInvariance) {
  // The stitched forward must not depend on how the batch is split
  // (batch norm off: no cross-sample coupling).
  const NDArray x = random_batch(6, 5);
  PipelinedUNet3d one(tiny(), 1);
  PipelinedUNet3d three(tiny(), 3);
  const NDArray a = one.forward(x, true);
  const NDArray b = three.forward(x, true);
  EXPECT_TRUE(a.allclose(b, 1e-6F));
}

TEST(PipelinedUNet3dTest, GradientsMatchMonolithic) {
  // One training step: pipelined gradients (accumulated over
  // microbatches with recomputation) must equal the monolithic ones.
  UNet3d mono(tiny());
  PipelinedUNet3d piped(tiny(), 2);
  const NDArray x = random_batch(4, 7);
  NDArray target(Shape{4, 1, 4, 4, 4});
  Rng rng(9);
  for (int64_t i = 0; i < target.numel(); ++i) {
    target[i] = rng.uniform() < 0.3 ? 1.0F : 0.0F;
  }
  SoftDiceLoss loss;

  for (Param& p : mono.params()) p.grad->zero();
  const NDArray mono_pred = mono.forward(x, true);
  mono.backward(loss.compute(mono_pred, target).grad);

  for (Param& p : piped.params()) p.grad->zero();
  const NDArray piped_pred = piped.forward(x, true);
  piped.backward(loss.compute(piped_pred, target).grad);

  const auto mono_params = mono.params();
  const auto piped_params = piped.params();
  ASSERT_EQ(mono_params.size(), piped_params.size());
  for (size_t i = 0; i < mono_params.size(); ++i) {
    ASSERT_EQ(mono_params[i].grad->numel(), piped_params[i].grad->numel());
    for (int64_t j = 0; j < mono_params[i].grad->numel(); ++j) {
      ASSERT_NEAR((*mono_params[i].grad)[j], (*piped_params[i].grad)[j],
                  5e-5F)
          << mono_params[i].name << " vs " << piped_params[i].name
          << " element " << j;
    }
  }
}

TEST(PipelinedUNet3dTest, TrainingStepEquivalence) {
  // Three full Adam steps: pipelined and monolithic training must stay
  // numerically aligned (batch norm off).
  UNet3d mono(tiny());
  PipelinedUNet3d piped(tiny(), 2);
  SoftDiceLoss loss;
  Adam mono_opt(mono.params(), 1e-3);
  Adam piped_opt(piped.params(), 1e-3);

  for (int step = 0; step < 3; ++step) {
    const NDArray x = random_batch(4, 11 + static_cast<uint64_t>(step));
    NDArray target(Shape{4, 1, 4, 4, 4});
    Rng rng(13 + static_cast<uint64_t>(step));
    for (int64_t i = 0; i < target.numel(); ++i) {
      target[i] = rng.uniform() < 0.3 ? 1.0F : 0.0F;
    }
    mono_opt.zero_grad();
    mono.backward(loss.compute(mono.forward(x, true), target).grad);
    mono_opt.step();

    piped_opt.zero_grad();
    piped.backward(loss.compute(piped.forward(x, true), target).grad);
    piped_opt.step();
  }

  const NDArray probe = random_batch(2, 99);
  EXPECT_TRUE(piped.forward(probe, false)
                  .allclose(mono.forward(probe, false), 5e-4F));
}

TEST(PipelinedUNet3dTest, RaggedBatchSmallerThanMicrobatches) {
  PipelinedUNet3d piped(tiny(), 4);
  const NDArray x = random_batch(2, 17);  // 2 samples, 4 microbatches
  const NDArray out = piped.forward(x, true);
  EXPECT_EQ(out.shape().n(), 2);
  NDArray grad(out.shape(), 0.01F);
  EXPECT_NO_THROW(piped.backward(grad));
}

TEST(PipelinedUNet3dTest, BackwardBeforeForwardThrows) {
  PipelinedUNet3d piped(tiny(), 2);
  NDArray grad(Shape{2, 1, 4, 4, 4});
  EXPECT_THROW(piped.backward(grad), InvalidArgument);
}

TEST(PipelinedUNet3dTest, WorksWithBatchNormPerMicrobatch) {
  // With batch norm, statistics are per microbatch (the GPipe semantic
  // shift); training must still be finite and usable.
  PipelinedUNet3d piped(tiny(true), 2);
  SoftDiceLoss loss;
  Adam opt(piped.params(), 1e-3);
  const NDArray x = random_batch(4, 19);
  NDArray target(Shape{4, 1, 4, 4, 4}, 0.0F);
  for (int64_t i = 0; i < 32; ++i) target[i] = 1.0F;
  for (int step = 0; step < 2; ++step) {
    opt.zero_grad();
    const NDArray pred = piped.forward(x, true);
    const LossResult res = loss.compute(pred, target);
    EXPECT_TRUE(std::isfinite(res.value));
    piped.backward(res.grad);
    opt.step();
  }
}

}  // namespace
}  // namespace dmis::nn
