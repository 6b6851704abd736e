// Differential parity: the production (implicit-GEMM) convolution
// layers must agree with the direct loop-nest reference kernels in
// conv_reference.hpp on forward outputs and on every gradient (input,
// weight, bias), across a seeded-random fuzz over conv geometry. The
// reference runs on the layer's own weights; agreement is 1e-4 max-abs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "conv_reference.hpp"
#include "gradcheck.hpp"
#include "nn/layers/conv3d.hpp"
#include "nn/layers/conv_transpose3d.hpp"

namespace dmis::nn {
namespace {

using testing::ConvGeometry;
using testing::ConvGrads;

constexpr float kTol = 1e-4F;

float max_abs_diff(const NDArray& a, const NDArray& b) {
  EXPECT_EQ(a.shape(), b.shape());
  float worst = 0.0F;
  for (int64_t i = 0; i < a.numel(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

struct ReferenceRun {
  NDArray output;
  ConvGrads grads;
};

ReferenceRun run_reference(const Conv3d&, const NDArray& input,
                           const NDArray& weight, const NDArray& bias,
                           const NDArray& grad_out, ConvGeometry geom) {
  return {testing::conv3d_forward_reference(input, weight, bias, geom),
          testing::conv3d_backward_reference(input, weight, grad_out, geom)};
}

ReferenceRun run_reference(const ConvTranspose3d&, const NDArray& input,
                           const NDArray& weight, const NDArray& bias,
                           const NDArray& grad_out, ConvGeometry geom) {
  return {testing::conv_transpose3d_forward_reference(input, weight, bias,
                                                      geom),
          testing::conv_transpose3d_backward_reference(input, weight,
                                                       grad_out, geom)};
}

/// Runs the layer forward + backward (parameter grads zeroed first) and
/// the reference kernels on the same weights, input and output gradient.
template <class Layer>
void expect_reference_parity(Layer& layer, ConvGeometry geom,
                             const NDArray& input, Rng& rng) {
  const NDArray output = layer.forward1(input, true);
  NDArray grad_out(output.shape());
  testing::fill_uniform(grad_out, rng, -1.0F, 1.0F);
  const std::vector<Param> params = layer.params();
  for (const Param& p : params) p.grad->zero();
  const NDArray grad_input =
      std::move(layer.backward1(input, output, grad_out).front());

  const ReferenceRun ref = run_reference(layer, input, *params[0].value,
                                         *params[1].value, grad_out, geom);
  EXPECT_LE(max_abs_diff(ref.output, output), kTol) << "forward";
  EXPECT_LE(max_abs_diff(ref.grads.input, grad_input), kTol) << "grad_input";
  EXPECT_LE(max_abs_diff(ref.grads.weight, *params[0].grad), kTol)
      << "grad_weight";
  EXPECT_LE(max_abs_diff(ref.grads.bias, *params[1].grad), kTol)
      << "grad_bias";
}

template <class T, size_t N>
T pick(const T (&options)[N], Rng& rng) {
  return options[static_cast<size_t>(
      rng.uniform_int(0, static_cast<int64_t>(N) - 1))];
}

// ---------------------------------------------------------------------------
// Conv3d: fuzz over kernel 1/3/5, stride 1/2, padding 0/1, odd spatial
// extents and cin/cout in {1, 3, 8}.

TEST(ConvParityTest, Conv3dFuzz) {
  Rng rng(0xD1FFE12ULL);
  const int kernels[] = {1, 3, 5};
  const int strides[] = {1, 2};
  const int paddings[] = {0, 1};
  const int64_t channels[] = {1, 3, 8};
  const int64_t extents[] = {3, 5, 7, 9};  // odd, non-divisible extents

  int checked = 0;
  while (checked < 40) {
    const int k = pick(kernels, rng);
    const int s = pick(strides, rng);
    const int p = pick(paddings, rng);
    const int64_t cin = pick(channels, rng);
    const int64_t cout = pick(channels, rng);
    const int64_t D = pick(extents, rng);
    const int64_t H = pick(extents, rng);
    const int64_t W = pick(extents, rng);
    const int64_t N = rng.uniform_int(1, 2);

    Rng init(rng.next_u64());
    Conv3d conv(cin, cout, k, s, p, init);
    if (conv.out_extent(D) <= 0 || conv.out_extent(H) <= 0 ||
        conv.out_extent(W) <= 0) {
      continue;  // geometry collapses the output; not a valid case
    }
    SCOPED_TRACE(::testing::Message()
                 << "trial " << checked << ": k=" << k << " s=" << s
                 << " p=" << p << " cin=" << cin << " cout=" << cout
                 << " in=[" << N << "," << cin << "," << D << "," << H << ","
                 << W << "]");
    NDArray input(Shape{N, cin, D, H, W});
    testing::fill_uniform(input, rng, -1.0F, 1.0F);
    expect_reference_parity(conv, {s, p}, input, rng);
    ++checked;
  }
}

// Deterministic coverage of the geometry grid the fuzzer samples from,
// so a parity break in any single (k, s, p) cell names itself.
struct ConvGeom {
  int kernel;
  int stride;
  int padding;
};

class ConvParityGrid : public ::testing::TestWithParam<ConvGeom> {};

TEST_P(ConvParityGrid, Conv3dForwardBackwardAgree) {
  const ConvGeom g = GetParam();
  Rng rng(77);
  Conv3d conv(3, 8, g.kernel, g.stride, g.padding, rng);
  const int64_t D = 7, H = 5, W = 9;
  if (conv.out_extent(D) <= 0 || conv.out_extent(H) <= 0 ||
      conv.out_extent(W) <= 0) {
    GTEST_SKIP() << "geometry collapses output";
  }
  NDArray input(Shape{2, 3, D, H, W});
  testing::fill_uniform(input, rng, -1.0F, 1.0F);
  expect_reference_parity(conv, {g.stride, g.padding}, input, rng);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConvParityGrid,
    ::testing::Values(ConvGeom{1, 1, 0}, ConvGeom{1, 2, 0}, ConvGeom{1, 1, 1},
                      ConvGeom{3, 1, 0}, ConvGeom{3, 1, 1}, ConvGeom{3, 2, 0},
                      ConvGeom{3, 2, 1}, ConvGeom{5, 1, 1}, ConvGeom{5, 2, 2},
                      ConvGeom{2, 2, 0}),
    [](const ::testing::TestParamInfo<ConvGeom>& info) {
      return "k" + std::to_string(info.param.kernel) + "s" +
             std::to_string(info.param.stride) + "p" +
             std::to_string(info.param.padding);
    });

// ---------------------------------------------------------------------------
// ConvTranspose3d: kernel 1/2/3, stride 1/2 (its K >= S upsampling regime
// plus the gappy K < S corner), cin/cout in {1, 3, 8}.

TEST(ConvParityTest, ConvTranspose3dFuzz) {
  Rng rng(0x7A2A5E3ULL);
  const int kernels[] = {1, 2, 3};
  const int strides[] = {1, 2};
  const int64_t channels[] = {1, 3, 8};
  const int64_t extents[] = {1, 3, 5, 7};

  for (int trial = 0; trial < 30; ++trial) {
    const int k = pick(kernels, rng);
    const int s = pick(strides, rng);
    const int64_t cin = pick(channels, rng);
    const int64_t cout = pick(channels, rng);
    const int64_t D = pick(extents, rng);
    const int64_t H = pick(extents, rng);
    const int64_t W = pick(extents, rng);
    const int64_t N = rng.uniform_int(1, 2);

    Rng init(rng.next_u64());
    ConvTranspose3d up(cin, cout, k, s, init);
    SCOPED_TRACE(::testing::Message()
                 << "trial " << trial << ": k=" << k << " s=" << s
                 << " cin=" << cin << " cout=" << cout << " in=[" << N << ","
                 << cin << "," << D << "," << H << "," << W << "]");
    NDArray input(Shape{N, cin, D, H, W});
    testing::fill_uniform(input, rng, -1.0F, 1.0F);
    expect_reference_parity(up, {s, 0}, input, rng);
  }
}

TEST(ConvParityTest, ConvTranspose3dPaperUpsampling) {
  // The exact k=2 s=2 configuration the U-Net synthesis path uses.
  Rng rng(13);
  ConvTranspose3d up(8, 8, 2, 2, rng);
  NDArray input(Shape{2, 8, 3, 5, 4});
  testing::fill_uniform(input, rng, -1.0F, 1.0F);
  expect_reference_parity(up, {2, 0}, input, rng);
}

}  // namespace
}  // namespace dmis::nn
