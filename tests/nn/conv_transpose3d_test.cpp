#include "nn/layers/conv_transpose3d.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "common/check.hpp"
#include "gradcheck.hpp"
#include "nn/graph.hpp"

namespace dmis::nn {
namespace {

using testing::expect_gradients_match;

TEST(ConvTranspose3dTest, DoublesSpatialExtentWithK2S2) {
  Rng rng(1);
  ConvTranspose3d up(4, 4, 2, 2, rng);
  NDArray in(Shape{2, 4, 3, 5, 4});
  const NDArray out = up.forward1(in, true);
  EXPECT_EQ(out.shape(), (Shape{2, 4, 6, 10, 8}));
}

TEST(ConvTranspose3dTest, NearestNeighborUpsampleWithOnesKernel) {
  // With K=S=2 each output voxel receives exactly one stamp contribution,
  // so an all-ones kernel replicates each input voxel into a 2x2x2 block.
  Rng rng(1);
  ConvTranspose3d up(1, 1, 2, 2, rng);
  up.params()[0].value->fill(1.0F);  // weight
  up.params()[1].value->fill(0.0F);  // bias
  NDArray in(Shape{1, 1, 2, 2, 2});
  for (int64_t i = 0; i < 8; ++i) in[i] = static_cast<float>(i + 1);
  const NDArray out = up.forward1(in, true);
  ASSERT_EQ(out.shape(), (Shape{1, 1, 4, 4, 4}));
  // Input voxel (0,0,0)=1 covers output corner block.
  EXPECT_FLOAT_EQ(out[0], 1.0F);
  EXPECT_FLOAT_EQ(out[1], 1.0F);
  EXPECT_FLOAT_EQ(out[4], 1.0F);
  EXPECT_FLOAT_EQ(out[5], 1.0F);
  // Input voxel (1,1,1)=8 covers the far corner.
  EXPECT_FLOAT_EQ(out[63], 8.0F);
}

TEST(ConvTranspose3dTest, ChannelMixing) {
  Rng rng(1);
  ConvTranspose3d up(2, 1, 2, 2, rng);
  up.params()[0].value->fill(1.0F);
  up.params()[1].value->fill(0.0F);
  NDArray in(Shape{1, 2, 1, 1, 1});
  in[0] = 3.0F;  // channel 0
  in[1] = 4.0F;  // channel 1
  const NDArray out = up.forward1(in, true);
  ASSERT_EQ(out.shape(), (Shape{1, 1, 2, 2, 2}));
  for (int64_t i = 0; i < 8; ++i) EXPECT_FLOAT_EQ(out[i], 7.0F);
}

TEST(ConvTranspose3dTest, RejectsWrongChannels) {
  Rng rng(1);
  ConvTranspose3d up(4, 4, 2, 2, rng);
  NDArray in(Shape{1, 2, 2, 2, 2});
  EXPECT_THROW(up.forward1(in, true), InvalidArgument);
}

// Backward needs a training forward's activations (see Conv3dTest's pair).
TEST(ConvTranspose3dTest, BackwardAfterInferenceForwardThrows) {
  Rng rng(1);
  Graph g;
  g.add_input("x");
  g.add("up", std::make_unique<ConvTranspose3d>(2, 3, 2, 2, rng), {"x"});
  g.set_output("up");
  NDArray in(Shape{1, 2, 2, 3, 2}, 0.5F);
  const NDArray grad(g.forward({{"x", &in}}, false).shape(), 1.0F);
  EXPECT_THROW(g.backward(grad), InvalidArgument);
  (void)g.forward({{"x", &in}}, true);
  (void)g.forward({{"x", &in}}, false);
  EXPECT_THROW(g.backward(grad), InvalidArgument);
}

TEST(ConvTranspose3dTest, InferenceForwardLeavesTrainingBackwardUnchanged) {
  Rng rng_a(1), rng_b(1), rng_in(2);
  ConvTranspose3d a(2, 3, 2, 2, rng_a), b(2, 3, 2, 2, rng_b);
  NDArray in(Shape{1, 2, 2, 3, 2}), other(Shape{1, 2, 2, 3, 2}, 0.25F);
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

TEST(ConvTranspose3dTest, GradCheckK2S2) {
  Rng rng(2);
  ConvTranspose3d up(2, 2, 2, 2, rng);
  expect_gradients_match(up, {Shape{2, 2, 2, 2, 2}});
}

TEST(ConvTranspose3dTest, GradCheckK3S1) {
  Rng rng(2);
  ConvTranspose3d up(1, 2, 3, 1, rng);
  expect_gradients_match(up, {Shape{1, 1, 2, 2, 2}});
}

}  // namespace
}  // namespace dmis::nn
