#include "nn/layers/maxpool3d.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "gradcheck.hpp"
#include "tensor/rng.hpp"

namespace dmis::nn {
namespace {

TEST(MaxPool3dTest, HalvesSpatialExtent) {
  MaxPool3d pool(2, 2);
  NDArray in(Shape{2, 3, 8, 6, 4});
  const NDArray out = pool.forward1(in, true);
  EXPECT_EQ(out.shape(), (Shape{2, 3, 4, 3, 2}));
}

TEST(MaxPool3dTest, PicksWindowMaximum) {
  MaxPool3d pool(2, 2);
  NDArray in(Shape{1, 1, 2, 2, 2});
  for (int64_t i = 0; i < 8; ++i) in[i] = static_cast<float>(i);
  in[3] = 42.0F;
  const NDArray out = pool.forward1(in, true);
  ASSERT_EQ(out.numel(), 1);
  EXPECT_FLOAT_EQ(out[0], 42.0F);
}

TEST(MaxPool3dTest, NegativeInputsHandled) {
  MaxPool3d pool(2, 2);
  NDArray in(Shape{1, 1, 2, 2, 2}, -5.0F);
  in[6] = -1.0F;
  const NDArray out = pool.forward1(in, true);
  EXPECT_FLOAT_EQ(out[0], -1.0F);
}

TEST(MaxPool3dTest, BackwardRoutesGradientToArgmaxOnly) {
  MaxPool3d pool(2, 2);
  NDArray in(Shape{1, 1, 2, 2, 2});
  for (int64_t i = 0; i < 8; ++i) in[i] = static_cast<float>(i);
  const NDArray out = pool.forward1(in, true);
  NDArray go(Shape{1, 1, 1, 1, 1});
  go[0] = 3.0F;
  const auto grads = pool.backward1(in, out, go);
  ASSERT_EQ(grads.size(), 1U);
  for (int64_t i = 0; i < 8; ++i) {
    EXPECT_FLOAT_EQ(grads[0][i], i == 7 ? 3.0F : 0.0F);
  }
}

TEST(MaxPool3dTest, GradCheckWithTieFreeInput) {
  MaxPool3d pool(2, 2);
  // Well-separated values so the eps-perturbation never flips the argmax.
  NDArray in(Shape{1, 2, 4, 4, 4});
  std::vector<int> order(static_cast<size_t>(in.numel()));
  std::iota(order.begin(), order.end(), 0);
  Rng rng(17);
  shuffle(order.begin(), order.end(), rng);
  for (int64_t i = 0; i < in.numel(); ++i) {
    in[i] = 0.1F * static_cast<float>(order[static_cast<size_t>(i)]);
  }
  std::vector<NDArray> inputs;
  inputs.push_back(std::move(in));
  testing::GradCheckOptions opts;
  opts.eps = 1e-3F;
  testing::expect_gradients_match_on(pool, std::move(inputs), opts);
}

TEST(MaxPool3dTest, RaggedExtentDropsRemainder) {
  MaxPool3d pool(2, 2);
  NDArray in(Shape{1, 1, 5, 5, 5}, 1.0F);
  const NDArray out = pool.forward1(in, true);
  EXPECT_EQ(out.shape(), (Shape{1, 1, 2, 2, 2}));
}

}  // namespace
}  // namespace dmis::nn
