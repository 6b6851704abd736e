#include "nn/layers/activations.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "gradcheck.hpp"

namespace dmis::nn {
namespace {

TEST(ReLUTest, ClampsNegatives) {
  ReLU relu;
  NDArray in(Shape{4}, std::vector<float>{-2.0F, -0.0F, 0.5F, 3.0F});
  const NDArray out = relu.forward1(in, true);
  EXPECT_FLOAT_EQ(out[0], 0.0F);
  EXPECT_FLOAT_EQ(out[1], 0.0F);
  EXPECT_FLOAT_EQ(out[2], 0.5F);
  EXPECT_FLOAT_EQ(out[3], 3.0F);
}

TEST(ReLUTest, BackwardMasks) {
  ReLU relu;
  NDArray in(Shape{3}, std::vector<float>{-1.0F, 2.0F, -3.0F});
  const NDArray out = relu.forward1(in, true);
  NDArray go(Shape{3}, 5.0F);
  const auto g = relu.backward1(in, out, go);
  EXPECT_FLOAT_EQ(g[0][0], 0.0F);
  EXPECT_FLOAT_EQ(g[0][1], 5.0F);
  EXPECT_FLOAT_EQ(g[0][2], 0.0F);
}

TEST(ReLUTest, GradCheckAwayFromKink) {
  ReLU relu;
  // Keep |x| > eps so the finite difference never straddles zero.
  NDArray in(Shape{2, 3});
  const float vals[6] = {-0.9F, -0.4F, 0.3F, 0.8F, -0.2F, 0.6F};
  for (int64_t i = 0; i < 6; ++i) in[i] = vals[i];
  std::vector<NDArray> inputs;
  inputs.push_back(std::move(in));
  testing::GradCheckOptions opts;
  opts.eps = 1e-2F;
  testing::expect_gradients_match_on(relu, std::move(inputs), opts);
}

TEST(SigmoidTest, KnownValues) {
  Sigmoid sig;
  NDArray in(Shape{3}, std::vector<float>{0.0F, 100.0F, -100.0F});
  const NDArray out = sig.forward1(in, true);
  EXPECT_FLOAT_EQ(out[0], 0.5F);
  EXPECT_NEAR(out[1], 1.0F, 1e-6F);
  EXPECT_NEAR(out[2], 0.0F, 1e-6F);
}

TEST(SigmoidTest, OutputsAreProbabilities) {
  Sigmoid sig;
  NDArray in(Shape{100});
  Rng rng(4);
  testing::fill_uniform(in, rng, -50.0F, 50.0F);
  const NDArray out = sig.forward1(in, true);
  for (int64_t i = 0; i < out.numel(); ++i) {
    EXPECT_GE(out[i], 0.0F);
    EXPECT_LE(out[i], 1.0F);
  }
}

TEST(SigmoidTest, GradCheck) {
  Sigmoid sig;
  testing::expect_gradients_match(sig, {Shape{2, 5}});
}

TEST(SigmoidTest, DerivativePeaksAtZero) {
  Sigmoid sig;
  NDArray in(Shape{1}, 0.0F);
  const NDArray out = sig.forward1(in, true);
  NDArray go(Shape{1}, 1.0F);
  const auto g = sig.backward1(in, out, go);
  EXPECT_FLOAT_EQ(g[0][0], 0.25F);
}

}  // namespace
}  // namespace dmis::nn
