#include "nn/layers/concat.hpp"

#include <gtest/gtest.h>

#include "gradcheck.hpp"

namespace dmis::nn {
namespace {

TEST(ConcatTest, StacksChannels) {
  Concat cat(2);
  NDArray a(Shape{1, 2, 1, 1, 2}, 1.0F);
  NDArray b(Shape{1, 3, 1, 1, 2}, 2.0F);
  const NDArray* ins[2] = {&a, &b};
  const NDArray out =
      cat.forward(std::span<const NDArray* const>(ins, 2), true);
  ASSERT_EQ(out.shape(), (Shape{1, 5, 1, 1, 2}));
  for (int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(out[i], 1.0F);
  for (int64_t i = 4; i < 10; ++i) EXPECT_FLOAT_EQ(out[i], 2.0F);
}

TEST(ConcatTest, PerBatchInterleaving) {
  Concat cat(2);
  NDArray a(Shape{2, 1, 1, 1, 1});
  NDArray b(Shape{2, 1, 1, 1, 1});
  a[0] = 1.0F; a[1] = 3.0F;
  b[0] = 2.0F; b[1] = 4.0F;
  const NDArray* ins[2] = {&a, &b};
  const NDArray out =
      cat.forward(std::span<const NDArray* const>(ins, 2), true);
  // Batch 0: [1, 2]; batch 1: [3, 4].
  EXPECT_FLOAT_EQ(out[0], 1.0F);
  EXPECT_FLOAT_EQ(out[1], 2.0F);
  EXPECT_FLOAT_EQ(out[2], 3.0F);
  EXPECT_FLOAT_EQ(out[3], 4.0F);
}

TEST(ConcatTest, BackwardSplitsGradient) {
  Concat cat(2);
  NDArray a(Shape{1, 1, 1, 1, 2}, 0.0F);
  NDArray b(Shape{1, 2, 1, 1, 2}, 0.0F);
  const NDArray* ins[2] = {&a, &b};
  const NDArray out =
      cat.forward(std::span<const NDArray* const>(ins, 2), true);
  NDArray go(Shape{1, 3, 1, 1, 2});
  for (int64_t i = 0; i < 6; ++i) go[i] = static_cast<float>(i);
  const auto grads =
      cat.backward(std::span<const NDArray* const>(ins, 2), out, go);
  ASSERT_EQ(grads.size(), 2U);
  EXPECT_EQ(grads[0].shape(), a.shape());
  EXPECT_EQ(grads[1].shape(), b.shape());
  EXPECT_FLOAT_EQ(grads[0][0], 0.0F);
  EXPECT_FLOAT_EQ(grads[0][1], 1.0F);
  EXPECT_FLOAT_EQ(grads[1][0], 2.0F);
  EXPECT_FLOAT_EQ(grads[1][3], 5.0F);
}

TEST(ConcatTest, RejectsMismatchedSpatialDims) {
  Concat cat(2);
  NDArray a(Shape{1, 1, 2, 2, 2});
  NDArray b(Shape{1, 1, 2, 2, 3});
  const NDArray* ins[2] = {&a, &b};
  EXPECT_THROW(cat.forward(std::span<const NDArray* const>(ins, 2), true),
               InvalidArgument);
}

TEST(ConcatTest, RejectsWrongInputCount) {
  Concat cat(2);
  NDArray a(Shape{1, 1, 2, 2, 2});
  const NDArray* ins[1] = {&a};
  EXPECT_THROW(cat.forward(std::span<const NDArray* const>(ins, 1), true),
               InvalidArgument);
}

TEST(ConcatTest, GradCheckThreeWay) {
  Concat cat(3);
  testing::expect_gradients_match(
      cat, {Shape{2, 1, 2, 2, 2}, Shape{2, 2, 2, 2, 2}, Shape{2, 1, 2, 2, 2}});
}

}  // namespace
}  // namespace dmis::nn
