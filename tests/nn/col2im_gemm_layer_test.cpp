// Layer-level bit-for-bit parity of the fused GEMM + col2im kernel: the
// Conv3d input gradient and the ConvTranspose3d forward must equal the
// unfused sgemm + col2im_3d composition they replaced, on the U-Net layer
// shapes of the train_fullvol and train_widepatch benchmark workloads.
// Also pins the scratch contract: the fused passes take nothing from the
// Workspace, which now serves only the im2col passes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>

#include "../tensor/col2im_reference.hpp"
#include "nn/layers/conv3d.hpp"
#include "nn/layers/conv_transpose3d.hpp"
#include "nn/workspace.hpp"

namespace dmis::nn {
namespace {

NDArray random_array(const Shape& shape, uint64_t seed) {
  NDArray t(shape);
  Rng rng(seed);
  for (int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

void expect_bitwise_equal(const NDArray& got, const NDArray& want) {
  ASSERT_EQ(got.shape(), want.shape());
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        static_cast<size_t>(want.numel()) * sizeof(float)),
            0);
}

/// One layer instance: channels in and out at a cubic-ish input extent.
struct LayerShape {
  int64_t cin, cout, d, h, w;
};

std::string shape_name(const ::testing::TestParamInfo<LayerShape>& info) {
  const LayerShape& s = info.param;
  return std::to_string(s.cin) + "to" + std::to_string(s.cout) + "_" +
         std::to_string(s.d) + "x" + std::to_string(s.h) + "x" +
         std::to_string(s.w);
}

// Every 3x3x3 conv of the depth-3 U-Net on train_fullvol (16x32x32
// volumes, 4 base filters) and train_widepatch (8^3 patches, 24).
const LayerShape kConvShapes[] = {
    {1, 4, 16, 32, 32},  {4, 4, 16, 32, 32},  {4, 8, 8, 16, 16},
    {8, 8, 8, 16, 16},   {8, 16, 4, 8, 8},    {16, 16, 4, 8, 8},
    {24, 8, 8, 16, 16},  {12, 4, 16, 32, 32}, {1, 24, 8, 8, 8},
    {24, 24, 8, 8, 8},   {24, 48, 4, 4, 4},   {48, 48, 4, 4, 4},
    {48, 96, 2, 2, 2},   {96, 96, 2, 2, 2},   {144, 48, 4, 4, 4},
    {72, 24, 8, 8, 8},
};

// The up-convolutions of the same two models (input extents).
const LayerShape kUpShapes[] = {
    {16, 16, 4, 8, 8},
    {8, 8, 8, 16, 16},
    {96, 96, 2, 2, 2},
    {48, 48, 4, 4, 4},
};

class Col2imGemmConv3d : public ::testing::TestWithParam<LayerShape> {};

TEST_P(Col2imGemmConv3d, InputGradientMatchesUnfusedPairBitwise) {
  const LayerShape s = GetParam();
  const int64_t n_batch = 2;
  Rng rng(7);
  Conv3d conv(s.cin, s.cout, 3, 1, 1, rng);
  const NDArray in = random_array(Shape{n_batch, s.cin, s.d, s.h, s.w}, 8);
  const NDArray out = conv.forward1(in, true);
  const NDArray grad = random_array(out.shape(), 9);
  const NDArray got = conv.backward(grad).front();

  NDArray want(in.shape());
  const int64_t vol = s.d * s.h * s.w;
  for (int64_t n = 0; n < n_batch; ++n) {
    dmis::testing::col2im_gemm_oracle(
        conv.weight().data(), grad.data() + n * s.cout * vol, s.cout, s.cin,
        s.d, s.h, s.w, 3, 1, 1, s.d, s.h, s.w, want.data() + n * s.cin * vol);
  }
  expect_bitwise_equal(got, want);
}

TEST_P(Col2imGemmConv3d, BackwardGrowsWorkspaceNoFurtherThanForward) {
  const LayerShape s = GetParam();
  Rng rng(7);
  Conv3d conv(s.cin, s.cout, 3, 1, 1, rng);
  auto ws = std::make_shared<Workspace>();
  conv.set_workspace(ws);
  const NDArray in = random_array(Shape{1, s.cin, s.d, s.h, s.w}, 8);
  const NDArray out = conv.forward1(in, true);
  const int64_t after_forward = ws->capacity();
  conv.backward(random_array(out.shape(), 9));
  EXPECT_EQ(ws->capacity(), after_forward);
}

INSTANTIATE_TEST_SUITE_P(UNetShapes, Col2imGemmConv3d,
                         ::testing::ValuesIn(kConvShapes), shape_name);

class Col2imGemmConvTranspose3d
    : public ::testing::TestWithParam<LayerShape> {};

TEST_P(Col2imGemmConvTranspose3d, ForwardMatchesUnfusedPairBitwise) {
  const LayerShape s = GetParam();
  const int64_t n_batch = 2;
  Rng rng(7);
  ConvTranspose3d up(s.cin, s.cout, 2, 2, rng);
  const NDArray& weight = *up.params()[0].value;
  NDArray& bias = *up.params()[1].value;
  bias = random_array(bias.shape(), 10);
  const NDArray in = random_array(Shape{n_batch, s.cin, s.d, s.h, s.w}, 8);
  const NDArray got = up.forward1(in, true);

  NDArray want(got.shape());
  const int64_t vol = s.d * s.h * s.w, out_vol = 8 * vol;
  for (int64_t n = 0; n < n_batch; ++n) {
    float* yn = want.data() + n * s.cout * out_vol;
    for (int64_t co = 0; co < s.cout; ++co) {
      std::fill_n(yn + co * out_vol, out_vol, bias[co]);
    }
    dmis::testing::col2im_gemm_oracle(
        weight.data(), in.data() + n * s.cin * vol, s.cin, s.cout, 2 * s.d,
        2 * s.h, 2 * s.w, 2, 2, 0, s.d, s.h, s.w, yn);
  }
  expect_bitwise_equal(got, want);
}

TEST_P(Col2imGemmConvTranspose3d, ForwardTakesNoWorkspace) {
  const LayerShape s = GetParam();
  Rng rng(7);
  ConvTranspose3d up(s.cin, s.cout, 2, 2, rng);
  auto ws = std::make_shared<Workspace>();
  up.set_workspace(ws);
  up.forward1(random_array(Shape{1, s.cin, s.d, s.h, s.w}, 8), true);
  EXPECT_EQ(ws->capacity(), 0);
}

INSTANTIATE_TEST_SUITE_P(UNetShapes, Col2imGemmConvTranspose3d,
                         ::testing::ValuesIn(kUpShapes), shape_name);

}  // namespace
}  // namespace dmis::nn
