#include "nn/unet3d.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "nn/loss.hpp"
#include "nn/metrics.hpp"
#include "nn/optim.hpp"
#include "tensor/rng.hpp"

namespace dmis::nn {
namespace {

TEST(UNet3dTest, PaperPresetParameterCount) {
  // The paper reports 406,793 parameters (Fig 2 / section III-A) without
  // pinning the transposed-conv channel policy; our keep-channels preset
  // lands at 409,657 (+0.70%). This test freezes OUR count so regressions
  // are loud, and bounds the delta to the paper's figure.
  UNet3d net(UNet3dOptions::paper());
  const int64_t n = net.num_params();
  EXPECT_EQ(n, 409657);
  EXPECT_NEAR(static_cast<double>(n), 406793.0, 0.015 * 406793.0);
}

TEST(UNet3dTest, OutputShapeMatchesInputSpatialDims) {
  UNet3dOptions opts;
  opts.in_channels = 4;
  opts.out_channels = 1;
  opts.base_filters = 2;
  UNet3d net(opts);
  NDArray in(Shape{1, 4, 8, 8, 8});
  const NDArray& out = net.forward(in, false);
  EXPECT_EQ(out.shape(), (Shape{1, 1, 8, 8, 8}));
}

TEST(UNet3dTest, OutputsAreProbabilities) {
  UNet3dOptions opts;
  opts.base_filters = 2;
  UNet3d net(opts);
  NDArray in(Shape{1, 4, 8, 8, 8});
  Rng rng(3);
  for (int64_t i = 0; i < in.numel(); ++i)
    in[i] = static_cast<float>(rng.normal());
  const NDArray& out = net.forward(in, true);
  for (int64_t i = 0; i < out.numel(); ++i) {
    EXPECT_GE(out[i], 0.0F);
    EXPECT_LE(out[i], 1.0F);
  }
}

TEST(UNet3dTest, RejectsIndivisibleSpatialExtent) {
  UNet3dOptions opts;
  opts.base_filters = 2;
  UNet3d net(opts);
  EXPECT_EQ(net.spatial_divisor(), 8);
  NDArray in(Shape{1, 4, 12, 8, 8});  // 12 % 8 != 0
  EXPECT_THROW(net.forward(in, true), InvalidArgument);
}

TEST(UNet3dTest, RejectsWrongChannels) {
  UNet3dOptions opts;
  opts.base_filters = 2;
  UNet3d net(opts);
  NDArray in(Shape{1, 3, 8, 8, 8});
  EXPECT_THROW(net.forward(in, true), InvalidArgument);
}

TEST(UNet3dTest, DeterministicForSameSeed) {
  UNet3dOptions opts;
  opts.base_filters = 2;
  opts.seed = 99;
  UNet3d a(opts), b(opts);
  NDArray in(Shape{1, 4, 8, 8, 8}, 0.5F);
  const NDArray out_a = a.forward(in, false);
  const NDArray out_b = b.forward(in, false);
  EXPECT_TRUE(out_a.allclose(out_b, 0.0F));
}

TEST(UNet3dTest, DepthThreeDivisorIsFour) {
  UNet3dOptions opts;
  opts.depth = 3;
  opts.base_filters = 2;
  UNet3d net(opts);
  EXPECT_EQ(net.spatial_divisor(), 4);
  NDArray in(Shape{1, 4, 4, 4, 4});
  EXPECT_NO_THROW(net.forward(in, false));
}

TEST(UNet3dTest, FiltersDoublePerStep) {
  UNet3dOptions opts;
  EXPECT_EQ(opts.filters(1), 8);
  EXPECT_EQ(opts.filters(2), 16);
  EXPECT_EQ(opts.filters(3), 32);
  EXPECT_EQ(opts.filters(4), 64);
}

// Configuration sweep: every (depth, base_filters, norm) combination
// must build, run forward with the right output geometry, and keep its
// probability-map contract.
//
// gtest prints this parameter as its raw bytes, and the printout is part
// of each test's name. The two filler fields occupy what would otherwise
// be uninitialised padding, so the names are the same on every run.
struct UNetConfig {
  int depth;
  int32_t filler0 = -1;
  int64_t base_filters;
  NormKind norm;
  int32_t filler1 = -1;
};

class UNet3dConfigSweep : public ::testing::TestWithParam<UNetConfig> {};

TEST_P(UNet3dConfigSweep, BuildsAndRuns) {
  const UNetConfig cfg = GetParam();
  UNet3dOptions opts;
  opts.in_channels = 2;
  opts.out_channels = 1;
  opts.base_filters = cfg.base_filters;
  opts.depth = cfg.depth;
  opts.norm = cfg.norm;
  UNet3d net(opts);
  const int64_t s = net.spatial_divisor();
  NDArray in(Shape{2, 2, s, 2 * s, s});
  Rng rng(4);
  for (int64_t i = 0; i < in.numel(); ++i) {
    in[i] = static_cast<float>(rng.normal());
  }
  const NDArray& out = net.forward(in, true);
  EXPECT_EQ(out.shape(), (Shape{2, 1, s, 2 * s, s}));
  for (int64_t i = 0; i < out.numel(); ++i) {
    ASSERT_GE(out[i], 0.0F);
    ASSERT_LE(out[i], 1.0F);
  }
  // Backward runs without shape errors and produces finite grads.
  NDArray grad(out.shape(), 0.01F);
  net.backward(grad);
  for (const Param& p : net.params()) {
    for (int64_t i = 0; i < p.grad->numel(); ++i) {
      ASSERT_TRUE(std::isfinite((*p.grad)[i])) << p.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, UNet3dConfigSweep,
    ::testing::Values(
        UNetConfig{.depth = 2, .base_filters = 2, .norm = NormKind::kBatch},
        UNetConfig{.depth = 2, .base_filters = 2, .norm = NormKind::kNone},
        UNetConfig{.depth = 3, .base_filters = 2, .norm = NormKind::kBatch},
        UNetConfig{.depth = 4, .base_filters = 2, .norm = NormKind::kNone}),
    [](const ::testing::TestParamInfo<UNetConfig>& info) {
      const char* norm = info.param.norm == NormKind::kBatch ? "bn" : "none";
      return "d" + std::to_string(info.param.depth) + "f" +
             std::to_string(info.param.base_filters) + "_" + norm;
    });

// The end-to-end learning smoke test: a tiny U-Net must overfit a single
// synthetic volume — loss falls and hard Dice rises well above chance.
TEST(UNet3dTest, OverfitsSingleExample) {
  UNet3dOptions opts;
  opts.in_channels = 1;
  opts.base_filters = 2;
  opts.depth = 2;
  opts.seed = 7;
  UNet3d net(opts);

  // A centered bright cube is the "tumor".
  const int64_t S = 8;
  NDArray x(Shape{1, 1, S, S, S});
  NDArray y(Shape{1, 1, S, S, S});
  Rng rng(11);
  for (int64_t d = 0; d < S; ++d) {
    for (int64_t h = 0; h < S; ++h) {
      for (int64_t w = 0; w < S; ++w) {
        const bool inside = d >= 2 && d < 6 && h >= 2 && h < 6 && w >= 2 && w < 6;
        const int64_t i = (d * S + h) * S + w;
        x[i] = (inside ? 1.0F : -1.0F) +
               static_cast<float>(rng.normal(0.0, 0.1));
        y[i] = inside ? 1.0F : 0.0F;
      }
    }
  }

  SoftDiceLoss loss;
  Adam opt(net.params(), 1e-2);
  double first_loss = 0.0, last_loss = 0.0;
  for (int epoch = 0; epoch < 200; ++epoch) {
    opt.zero_grad();
    const NDArray& pred = net.forward(x, true);
    const LossResult res = loss.compute(pred, y);
    if (epoch == 0) first_loss = res.value;
    last_loss = res.value;
    net.backward(res.grad);
    opt.step();
  }
  EXPECT_LT(last_loss, 0.5 * first_loss);

  const NDArray& pred = net.forward(x, true);
  EXPECT_GT(dice_score(pred, y), 0.85);
}

}  // namespace
}  // namespace dmis::nn
