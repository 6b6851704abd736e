// The fused GEMM + col2im kernel against the unfused pair it replaced
// (sgemm into a column matrix, then the col2im_3d scatter-add): the two
// must agree bit for bit, for every geometry, thread count and reduced
// channel count. Both sides rely on the same floating-point contraction
// (FMA) in the -march=native kernels, so compiling the fused kernel with
// different flags than sgemm shows up here as last-bit differences.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <vector>

#include "col2im_reference.hpp"
#include "common/check.hpp"
#include "tensor/gemm.hpp"
#include "tensor/rng.hpp"
#include "tensor/thread_pool.hpp"

namespace dmis {
namespace {

std::vector<float> random_values(int64_t n, Rng& rng) {
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

struct Geom {
  int64_t k, s, p;
};

class Col2imGemmOracle : public ::testing::TestWithParam<Geom> {};

TEST_P(Col2imGemmOracle, MatchesUnfusedPairBitwise) {
  const Geom g = GetParam();
  const int64_t n_batch = 2, channels = 5, d = 3, h = 4;
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  for (const int64_t w : {1, 2, 5, 7, 32}) {
    if (w + 2 * g.p < g.k) continue;  // no output position fits
    const int64_t od = (d + 2 * g.p - g.k) / g.s + 1;
    const int64_t oh = (h + 2 * g.p - g.k) / g.s + 1;
    const int64_t ow = (w + 2 * g.p - g.k) / g.s + 1;
    const int64_t vol = d * h * w, cols = od * oh * ow;
    for (const int64_t reduced : {1, 4, 24, 300}) {
      SCOPED_TRACE(::testing::Message() << "w=" << w
                                        << " reduced=" << reduced);
      Rng rng(static_cast<uint64_t>(1000 * g.k + 100 * g.s + 10 * g.p + w +
                                    reduced));
      auto wt = random_values(reduced * channels * g.k * g.k * g.k, rng);
      // One buffer holding both samples, as a layer's batch does.
      auto go = random_values(n_batch * reduced * cols, rng);
      auto im0 = random_values(n_batch * channels * vol, rng);
      // Signed zeros in every operand: a kernel that adds a masked-off
      // tap as +0 instead of skipping it turns an image -0 into +0.
      for (size_t i = 0; i < im0.size(); i += 7) im0[i] = -0.0F;
      for (size_t i = 0; i < wt.size(); i += 11) wt[i] = -0.0F;
      for (size_t i = 0; i < go.size(); i += 13) go[i] = -0.0F;

      std::vector<float> want = im0;
      for (int64_t n = 0; n < n_batch; ++n) {
        testing::col2im_gemm_oracle(
            wt.data(), go.data() + n * reduced * cols, reduced, channels, d, h,
            w, g.k, g.s, g.p, od, oh, ow, want.data() + n * channels * vol);
      }
      for (ThreadPool* pool : {&pool1, &pool4}) {
        std::vector<float> got = im0;
        for (int64_t n = 0; n < n_batch; ++n) {
          col2im_gemm_3d(wt.data(), go.data() + n * reduced * cols, reduced,
                         channels, d, h, w, g.k, g.s, g.p, od, oh, ow,
                         got.data() + n * channels * vol, pool);
        }
        ASSERT_EQ(std::memcmp(got.data(), want.data(),
                              want.size() * sizeof(float)),
                  0)
            << "threads=" << pool->size();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geoms, Col2imGemmOracle,
    ::testing::Values(Geom{1, 1, 0}, Geom{1, 1, 1}, Geom{1, 2, 0},
                      Geom{1, 2, 1}, Geom{2, 1, 0}, Geom{2, 1, 1},
                      Geom{2, 2, 0},  // ConvTranspose3d's up-convolution
                      Geom{2, 2, 1}, Geom{3, 1, 0},
                      Geom{3, 1, 1},  // Conv3d's "same" 3x3x3
                      Geom{3, 2, 0}, Geom{3, 2, 1}),
    [](const ::testing::TestParamInfo<Geom>& info) {
      const Geom& g = info.param;
      std::ostringstream name;
      name << "k" << g.k << "s" << g.s << "p" << g.p;
      return name.str();
    });

TEST(Col2imGemmTest, RejectsInconsistentExtents) {
  std::vector<float> wt(27), go(27), im(27);
  EXPECT_THROW(col2im_gemm_3d(wt.data(), go.data(), 1, 1, 3, 3, 3, 3, 1, 1,
                              2, 3, 3, im.data()),
               InvalidArgument);
}

}  // namespace
}  // namespace dmis
