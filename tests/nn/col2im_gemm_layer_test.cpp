// Layer-level bit-for-bit parity of the conv kernels: every pass of
// Conv3d and ConvTranspose3d must equal the stored-lowering composition
// it replaced — sgemm + col2im_3d for the Conv3d input gradient and the
// ConvTranspose3d forward, im2col_3d + sgemm for the Conv3d forward and
// weight gradient and the ConvTranspose3d backward — on the U-Net layer
// shapes of the train_fullvol and train_widepatch benchmark workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "../tensor/col2im_reference.hpp"
#include "nn/layers/conv3d.hpp"
#include "nn/layers/conv_transpose3d.hpp"

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

TEST_P(Col2imGemmConv3d, ForwardMatchesIm2colSgemmBitwise) {
  const LayerShape s = GetParam();
  const int64_t n_batch = 2;
  Rng rng(7);
  Conv3d conv(s.cin, s.cout, 3, 1, 1, rng);
  conv.bias() = random_array(conv.bias().shape(), 10);
  const NDArray in = random_array(Shape{n_batch, s.cin, s.d, s.h, s.w}, 8);
  const NDArray got = conv.forward1(in, true);

  NDArray want(got.shape());
  const int64_t vol = s.d * s.h * s.w;
  for (int64_t n = 0; n < n_batch; ++n) {
    float* yn = want.data() + n * s.cout * vol;
    for (int64_t co = 0; co < s.cout; ++co) {
      std::fill_n(yn + co * vol, vol, conv.bias()[co]);
    }
    dmis::testing::im2col_gemm_oracle(conv.weight().data(),
                                      in.data() + n * s.cin * vol, s.cout,
                                      s.cin, s.d, s.h, s.w, 3, 1, 1, s.d, s.h,
                                      s.w, yn, /*accumulate=*/true);
  }
  expect_bitwise_equal(got, want);
}

TEST_P(Col2imGemmConv3d, WeightGradientMatchesIm2colSgemmBitwise) {
  const LayerShape s = GetParam();
  const int64_t n_batch = 2;
  Rng rng(7);
  Conv3d conv(s.cin, s.cout, 3, 1, 1, rng);
  NDArray& grad_weight = *conv.params()[0].grad;
  // Backward accumulates into whatever the gradient holds.
  grad_weight = random_array(grad_weight.shape(), 11);
  NDArray want = grad_weight;
  const NDArray in = random_array(Shape{n_batch, s.cin, s.d, s.h, s.w}, 8);
  const NDArray grad = random_array(conv.forward1(in, true).shape(), 9);
  conv.backward(grad);

  const int64_t vol = s.d * s.h * s.w;
  for (int64_t n = 0; n < n_batch; ++n) {
    dmis::testing::gemm_im2col_t_oracle(
        grad.data() + n * s.cout * vol, in.data() + n * s.cin * vol, s.cout,
        s.cin, s.d, s.h, s.w, 3, 1, 1, s.d, s.h, s.w, want.data(),
        /*accumulate=*/true);
  }
  expect_bitwise_equal(grad_weight, want);
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

TEST_P(Col2imGemmConvTranspose3d, BackwardMatchesIm2colSgemmBitwise) {
  const LayerShape s = GetParam();
  const int64_t n_batch = 2;
  Rng rng(7);
  ConvTranspose3d up(s.cin, s.cout, 2, 2, rng);
  const NDArray& weight = *up.params()[0].value;
  NDArray& grad_weight = *up.params()[0].grad;
  grad_weight = random_array(grad_weight.shape(), 11);
  NDArray want_gw = grad_weight;
  const NDArray in = random_array(Shape{n_batch, s.cin, s.d, s.h, s.w}, 8);
  const NDArray grad = random_array(up.forward1(in, true).shape(), 9);
  const NDArray got_gi = up.backward(grad).front();

  NDArray want_gi(in.shape());
  const int64_t vol = s.d * s.h * s.w, out_vol = 8 * vol;
  for (int64_t n = 0; n < n_batch; ++n) {
    const float* gn = grad.data() + n * s.cout * out_vol;
    dmis::testing::im2col_gemm_oracle(
        weight.data(), gn, s.cin, s.cout, 2 * s.d, 2 * s.h, 2 * s.w, 2, 2, 0,
        s.d, s.h, s.w, want_gi.data() + n * s.cin * vol,
        /*accumulate=*/false);
    dmis::testing::gemm_im2col_t_oracle(
        in.data() + n * s.cin * vol, gn, s.cin, s.cout, 2 * s.d, 2 * s.h,
        2 * s.w, 2, 2, 0, s.d, s.h, s.w, want_gw.data(),
        /*accumulate=*/true);
  }
  expect_bitwise_equal(got_gi, want_gi);
  expect_bitwise_equal(grad_weight, want_gw);
}

INSTANTIATE_TEST_SUITE_P(UNetShapes, Col2imGemmConvTranspose3d,
                         ::testing::ValuesIn(kUpShapes), shape_name);

}  // namespace
}  // namespace dmis::nn
