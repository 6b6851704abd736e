#include "nn/layers/conv3d.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "common/check.hpp"
#include "gradcheck.hpp"
#include "nn/graph.hpp"

namespace dmis::nn {
namespace {

using testing::expect_gradients_match;
using testing::GradCheckOptions;

TEST(Conv3dTest, OutputShapeSamePadding) {
  Rng rng(1);
  Conv3d conv(4, 8, 3, 1, 1, rng);
  NDArray in(Shape{2, 4, 6, 6, 4});
  const NDArray out = conv.forward1(in, true);
  EXPECT_EQ(out.shape(), (Shape{2, 8, 6, 6, 4}));
}

TEST(Conv3dTest, OutputShapeStride2NoPad) {
  Rng rng(1);
  Conv3d conv(1, 2, 2, 2, 0, rng);
  NDArray in(Shape{1, 1, 8, 6, 4});
  const NDArray out = conv.forward1(in, true);
  EXPECT_EQ(out.shape(), (Shape{1, 2, 4, 3, 2}));
}

TEST(Conv3dTest, IdentityKernelReproducesInput) {
  Rng rng(1);
  Conv3d conv(1, 1, 1, 1, 0, rng);
  conv.weight().fill(1.0F);
  conv.bias().fill(0.0F);
  NDArray in(Shape{1, 1, 3, 3, 3});
  for (int64_t i = 0; i < in.numel(); ++i) in[i] = static_cast<float>(i);
  const NDArray out = conv.forward1(in, true);
  EXPECT_TRUE(out.allclose(in));
}

TEST(Conv3dTest, KnownValueAveragingKernel) {
  // A 3x3x3 all-ones kernel with zero padding sums the 27-neighborhood.
  Rng rng(1);
  Conv3d conv(1, 1, 3, 1, 1, rng);
  conv.weight().fill(1.0F);
  conv.bias().fill(0.5F);
  NDArray in(Shape{1, 1, 3, 3, 3}, 1.0F);
  const NDArray out = conv.forward1(in, true);
  // Center voxel sees all 27 ones; corner voxel sees 8.
  EXPECT_FLOAT_EQ(out[13], 27.0F + 0.5F);
  EXPECT_FLOAT_EQ(out[0], 8.0F + 0.5F);
}

TEST(Conv3dTest, BiasShiftsOutputUniformly) {
  Rng rng(3);
  Conv3d conv(2, 3, 3, 1, 1, rng);
  NDArray in(Shape{1, 2, 4, 4, 4});
  testing::fill_uniform(in, rng, -1.0F, 1.0F);
  const NDArray base = conv.forward1(in, true);
  conv.bias().fill(2.0F);
  const NDArray shifted = conv.forward1(in, true);
  for (int64_t i = 0; i < base.numel(); ++i) {
    EXPECT_NEAR(shifted[i] - base[i], 2.0F, 1e-5F);
  }
}

TEST(Conv3dTest, RejectsWrongChannelCount) {
  Rng rng(1);
  Conv3d conv(4, 8, 3, 1, 1, rng);
  NDArray in(Shape{1, 3, 8, 8, 8});
  EXPECT_THROW(conv.forward1(in, true), InvalidArgument);
}

// The layer keeps no input of its own, so backward needs the activations
// of a training forward from the graph that holds it: after an inference
// forward there is nothing to differentiate, even when an earlier training
// forward's activations would still have been around.
TEST(Conv3dTest, BackwardAfterInferenceForwardThrows) {
  Rng rng(1);
  Graph g;
  g.add_input("x");
  g.add("conv", std::make_unique<Conv3d>(2, 3, 3, 1, 1, rng), {"x"});
  g.set_output("conv");
  NDArray in(Shape{1, 2, 4, 4, 4}, 0.5F);
  const NDArray grad(g.forward({{"x", &in}}, false).shape(), 1.0F);
  EXPECT_THROW(g.backward(grad), InvalidArgument);
  (void)g.forward({{"x", &in}}, true);
  (void)g.forward({{"x", &in}}, false);
  EXPECT_THROW(g.backward(grad), InvalidArgument);
}

TEST(Conv3dTest, InferenceForwardLeavesTrainingBackwardUnchanged) {
  Rng rng_a(1), rng_b(1), rng_in(2);
  Conv3d a(2, 3, 3, 1, 1, rng_a), b(2, 3, 3, 1, 1, rng_b);
  NDArray in(Shape{1, 2, 4, 4, 4}), other(Shape{1, 2, 4, 4, 4}, 0.25F);
  testing::fill_uniform(in, rng_in, -1.0F, 1.0F);
  const NDArray out_a = a.forward1(in, true);
  const NDArray grad(out_a.shape(), 1.0F);
  const NDArray want = a.backward1(in, out_a, grad).front();
  b.forward1(other, false);
  const NDArray out_b = b.forward1(in, true);
  const NDArray got = b.backward1(in, out_b, grad).front();
  ASSERT_EQ(got.shape(), want.shape());
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        static_cast<size_t>(want.numel()) * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(b.params()[0].grad->data(), a.params()[0].grad->data(),
                        static_cast<size_t>(a.params()[0].grad->numel()) *
                            sizeof(float)),
            0);
}

TEST(Conv3dTest, GradCheck3x3x3SamePadding) {
  Rng rng(2);
  Conv3d conv(2, 2, 3, 1, 1, rng);
  expect_gradients_match(conv, {Shape{2, 2, 3, 3, 3}});
}

TEST(Conv3dTest, GradCheck1x1x1Head) {
  Rng rng(2);
  Conv3d conv(3, 1, 1, 1, 0, rng);
  expect_gradients_match(conv, {Shape{2, 3, 2, 3, 2}});
}

TEST(Conv3dTest, GradCheckStride2) {
  Rng rng(2);
  Conv3d conv(1, 2, 2, 2, 0, rng);
  expect_gradients_match(conv, {Shape{1, 1, 4, 4, 4}});
}

struct ConvGeom {
  int kernel;
  int stride;
  int padding;
};

class Conv3dGeometryTest : public ::testing::TestWithParam<ConvGeom> {};

TEST_P(Conv3dGeometryTest, OutExtentMatchesForwardShape) {
  const ConvGeom g = GetParam();
  Rng rng(4);
  Conv3d conv(1, 1, g.kernel, g.stride, g.padding, rng);
  const int64_t D = 7, H = 6, W = 5;
  if (conv.out_extent(D) <= 0 || conv.out_extent(H) <= 0 ||
      conv.out_extent(W) <= 0) {
    GTEST_SKIP() << "geometry collapses output";
  }
  NDArray in(Shape{1, 1, D, H, W}, 1.0F);
  const NDArray out = conv.forward1(in, true);
  EXPECT_EQ(out.shape().d(), conv.out_extent(D));
  EXPECT_EQ(out.shape().dim(3), conv.out_extent(H));
  EXPECT_EQ(out.shape().dim(4), conv.out_extent(W));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Conv3dGeometryTest,
    ::testing::Values(ConvGeom{1, 1, 0}, ConvGeom{3, 1, 1},
                      ConvGeom{3, 2, 1}, ConvGeom{2, 2, 0},
                      ConvGeom{5, 1, 2}, ConvGeom{3, 3, 0}),
    [](const ::testing::TestParamInfo<ConvGeom>& info) {
      return "k" + std::to_string(info.param.kernel) + "s" +
             std::to_string(info.param.stride) + "p" +
             std::to_string(info.param.padding);
    });

// Gradient-check sweep across conv geometries: every (kernel, stride,
// padding) combination must have consistent analytic gradients.
class Conv3dGradSweep : public ::testing::TestWithParam<ConvGeom> {};

TEST_P(Conv3dGradSweep, GradCheck) {
  const ConvGeom g = GetParam();
  Rng rng(8);
  Conv3d conv(2, 2, g.kernel, g.stride, g.padding, rng);
  const int64_t extent = 4;
  if (conv.out_extent(extent) <= 0) GTEST_SKIP() << "output collapses";
  expect_gradients_match(conv, {Shape{1, 2, extent, extent, extent}});
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Conv3dGradSweep,
    ::testing::Values(ConvGeom{1, 1, 0}, ConvGeom{2, 1, 0}, ConvGeom{2, 2, 0},
                      ConvGeom{3, 1, 1}, ConvGeom{3, 2, 1}, ConvGeom{3, 1, 0},
                      ConvGeom{4, 2, 1}),
    [](const ::testing::TestParamInfo<ConvGeom>& info) {
      return "k" + std::to_string(info.param.kernel) + "s" +
             std::to_string(info.param.stride) + "p" +
             std::to_string(info.param.padding);
    });

}  // namespace
}  // namespace dmis::nn
