// ReLU, Sigmoid and BatchNorm differentiate from the forward's input and
// output, which nn::Graph owns, instead of a tensor each layer stashed in
// forward (a ReLU mask, a Sigmoid output copy, the BatchNorm x_hat). The
// stash formulas are written out below, exactly as those layers used to
// evaluate them, and every backward must match them bit for bit —
// including signed zeros, NaN and infinities in the incoming gradient.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "gradcheck.hpp"
#include "nn/layers/activations.hpp"
#include "nn/layers/batchnorm.hpp"

namespace dmis::nn {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

// Values that stress the sign and special-value paths of a multiply.
const std::vector<float> kSpecial = {0.0F,  -0.0F, -1.5F, 2.25F, kNaN,
                                     kInf,  -kInf, 1e-30F, -3e7F};

void expect_bitwise_equal(const NDArray& got, const NDArray& want) {
  ASSERT_EQ(got.shape(), want.shape());
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        static_cast<size_t>(want.numel()) * sizeof(float)),
            0);
}

// Random values, with the special ones laid over the first elements.
NDArray mixed(const Shape& shape, uint64_t seed, bool special) {
  NDArray t(shape);
  Rng rng(seed);
  testing::fill_uniform(t, rng, -2.0F, 2.0F);
  if (special) {
    for (size_t i = 0; i < kSpecial.size() && i < static_cast<size_t>(
                                                      t.numel());
         ++i) {
      t[static_cast<int64_t>(i)] = kSpecial[i];
    }
  }
  return t;
}

TEST(StashFreeBackward, ReLUMatchesMaskFormula) {
  ReLU relu;
  // The input carries ±0, negatives, NaN and ±inf too: all but +inf and
  // the positives must mask the gradient out.
  const NDArray in = mixed(Shape{3, 4, 5}, 1, /*special=*/true);
  NDArray go = mixed(in.shape(), 2, /*special=*/false);
  for (size_t i = 0; i < kSpecial.size(); ++i) {
    go[static_cast<int64_t>(kSpecial.size() + i)] = kSpecial[i];
    go[static_cast<int64_t>(3 * kSpecial.size() - 1 - i)] = kSpecial[i];
  }
  const NDArray out = relu.forward1(in, true);

  NDArray want(in.shape());
  for (int64_t i = 0; i < in.numel(); ++i) {
    const float mask = in[i] > 0.0F ? 1.0F : 0.0F;
    want[i] = go[i] * mask;
  }
  expect_bitwise_equal(relu.backward1(in, out, go).front(), want);
}

TEST(StashFreeBackward, SigmoidMatchesStashedOutputFormula) {
  Sigmoid sig;
  const NDArray in = mixed(Shape{2, 3, 7}, 3, /*special=*/true);
  const NDArray go = mixed(in.shape(), 4, /*special=*/true);
  const NDArray out = sig.forward1(in, true);

  // The stash was a copy of the output; so is this.
  const NDArray stash = out;
  NDArray want(in.shape());
  for (int64_t i = 0; i < in.numel(); ++i) {
    const float s = stash[i];
    want[i] = go[i] * s * (1.0F - s);
  }
  expect_bitwise_equal(sig.backward1(in, out, go).front(), want);
}

struct BatchNormRef {
  NDArray grad_input;
  NDArray grad_gamma;
  NDArray grad_beta;
};

// The forward statistics, x_hat stash and backward of the stash-keeping
// BatchNorm, for input (N, C, spatial...) with gamma, eps and — in eval
// mode — the running statistics as given.
BatchNormRef batchnorm_stash_reference(const NDArray& x, const NDArray& go,
                                       const NDArray& gamma,
                                       const NDArray& running_mean,
                                       const NDArray& running_var, float eps,
                                       bool training) {
  const Shape& s = x.shape();
  const int64_t N = s.n(), C = s.c();
  const int64_t spatial = s.numel() / (N * C);
  const int64_t ns = C * spatial;
  const int64_t count = N * spatial;
  BatchNormRef ref{NDArray(s), NDArray(Shape{C}), NDArray(Shape{C})};
  NDArray x_hat(s);
  for (int64_t c = 0; c < C; ++c) {
    float mean = 0.0F;
    float var = 0.0F;
    if (training) {
      double sum = 0.0;
      double sq = 0.0;
      for (int64_t n = 0; n < N; ++n) {
        for (int64_t i = 0; i < spatial; ++i) {
          const float v = x[n * ns + c * spatial + i];
          sum += v;
          sq += static_cast<double>(v) * v;
        }
      }
      mean = static_cast<float>(sum / static_cast<double>(count));
      var = static_cast<float>(sq / static_cast<double>(count) -
                               static_cast<double>(mean) * mean);
      if (var < 0.0F) var = 0.0F;
    } else {
      mean = running_mean[c];
      var = running_var[c];
    }
    const float istd = 1.0F / std::sqrt(var + eps);
    for (int64_t n = 0; n < N; ++n) {
      for (int64_t i = 0; i < spatial; ++i) {
        const int64_t at = n * ns + c * spatial + i;
        x_hat[at] = (x[at] - mean) * istd;
      }
    }

    double sum_go = 0.0;
    double sum_go_xh = 0.0;
    for (int64_t n = 0; n < N; ++n) {
      for (int64_t i = 0; i < spatial; ++i) {
        const int64_t at = n * ns + c * spatial + i;
        sum_go += go[at];
        sum_go_xh += static_cast<double>(go[at]) * x_hat[at];
      }
    }
    ref.grad_gamma[c] = static_cast<float>(sum_go_xh);
    ref.grad_beta[c] = static_cast<float>(sum_go);
    const float m = static_cast<float>(count);
    const float mean_go = static_cast<float>(sum_go) / m;
    const float mean_go_xh = static_cast<float>(sum_go_xh) / m;
    for (int64_t n = 0; n < N; ++n) {
      for (int64_t i = 0; i < spatial; ++i) {
        const int64_t at = n * ns + c * spatial + i;
        ref.grad_input[at] =
            training ? gamma[c] * istd *
                           (go[at] - mean_go - x_hat[at] * mean_go_xh)
                     : gamma[c] * istd * go[at];
      }
    }
  }
  return ref;
}

class StashFreeBatchNorm : public ::testing::TestWithParam<bool> {};

TEST_P(StashFreeBatchNorm, MatchesXHatFormula) {
  const bool training = GetParam();
  const float eps = 1e-5F;
  BatchNorm bn(3, /*momentum=*/0.9F, eps);
  auto params = bn.params();
  auto state = bn.state();
  Rng rng(5);
  testing::fill_uniform(*params[0].value, rng, 0.5F, 1.5F);    // gamma
  testing::fill_uniform(*params[1].value, rng, -0.5F, 0.5F);   // beta
  testing::fill_uniform(*state[0].value, rng, -0.3F, 0.3F);    // mean
  testing::fill_uniform(*state[1].value, rng, 0.5F, 2.0F);     // var
  const NDArray running_mean = *state[0].value;
  const NDArray running_var = *state[1].value;

  // ±0 and negatives in the input (finite, so the statistics stay
  // finite); ±0, NaN and ±inf in channel 0 of the gradient, so the
  // other channels show the finite arithmetic.
  NDArray x = mixed(Shape{2, 3, 2, 3, 4}, 6, /*special=*/false);
  x[0] = 0.0F;
  x[1] = -0.0F;
  x[2] = -1.75F;
  NDArray go = mixed(x.shape(), 7, /*special=*/true);

  const NDArray out = bn.forward1(x, training);
  const std::vector<NDArray> got = bn.backward1(x, out, go);

  const BatchNormRef want =
      batchnorm_stash_reference(x, go, *params[0].value, running_mean,
                                running_var, eps, training);
  expect_bitwise_equal(got.front(), want.grad_input);
  expect_bitwise_equal(*params[0].grad, want.grad_gamma);
  expect_bitwise_equal(*params[1].grad, want.grad_beta);
}

INSTANTIATE_TEST_SUITE_P(Modes, StashFreeBatchNorm, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "training" : "eval";
                         });

}  // namespace
}  // namespace dmis::nn
