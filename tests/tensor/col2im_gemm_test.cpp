// The conv kernels of tensor/gemm.hpp against the stored-lowering
// compositions they replaced: col2im_gemm_3d against sgemm into a column
// matrix then the col2im_3d scatter-add, im2col_gemm_3d and
// gemm_im2col_t_3d against sgemm on the im2col_3d matrix. Each pair must
// agree bit for bit, for every geometry, thread count, row count and
// reduction length. Both sides rely on the same floating-point
// contraction (FMA) in the -march=native kernels, so compiling a kernel
// with different flags than sgemm shows up here as last-bit differences.
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

// The implicit-GEMM kernels. The rows m of A are a ragged register tile
// (1, 4, 5, 7) and a second MC block (97); the weight gradient, computed
// transposed, puts them on the tile's 16 lanes (ragged, and 7 panels
// with a ragged last one). The reductions (channels * k^3
// taps for the forward, output voxels for the weight gradient) straddle a
// KC = 256 boundary at k3, k5 and the stride-1 extents. Both accumulate
// modes.

/// One kernel call's operands: A, the image, and C's starting contents.
struct ImplicitCase {
  int64_t m, channels, d, h, w, od, oh, ow, taps, cols;
  std::vector<float> a, im, c0;
};

ImplicitCase make_case(const Geom& g, int64_t m, int64_t channels, int64_t d,
                       int64_t h, int64_t w, bool weight_grad) {
  ImplicitCase t{.m = m, .channels = channels, .d = d, .h = h, .w = w,
                 .od = (d + 2 * g.p - g.k) / g.s + 1,
                 .oh = (h + 2 * g.p - g.k) / g.s + 1,
                 .ow = (w + 2 * g.p - g.k) / g.s + 1, .taps = 0, .cols = 0,
                 .a = {}, .im = {}, .c0 = {}};
  t.taps = channels * g.k * g.k * g.k;
  t.cols = t.od * t.oh * t.ow;
  Rng rng(static_cast<uint64_t>(1000 * g.k + 100 * g.s + 10 * g.p + w + m +
                                channels));
  t.a = random_values(m * (weight_grad ? t.cols : t.taps), rng);
  t.im = random_values(channels * d * h * w, rng);
  t.c0 = random_values(m * (weight_grad ? t.taps : t.cols), rng);
  // Signed zeros in every operand: a kernel that adds a padding tap as +0
  // where sgemm multiplies a stored 0 (or the reverse) differs here.
  for (size_t i = 0; i < t.a.size(); i += 11) t.a[i] = -0.0F;
  for (size_t i = 0; i < t.im.size(); i += 7) t.im[i] = -0.0F;
  for (size_t i = 0; i < t.c0.size(); i += 5) t.c0[i] = -0.0F;
  return t;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Runs `check(case, accumulate)` over the suite's rows, channel counts,
/// odd widths and both accumulate modes of one geometry.
template <class Check>
void for_each_case(const Geom& g, bool weight_grad, Check check) {
  const int64_t d = 5, h = 7;
  for (const int64_t w : {1, 9, 19}) {
    if (w + 2 * g.p < g.k) continue;  // no output position fits
    for (const int64_t m : {1, 4, 5, 7, 97}) {
      for (const int64_t channels : {3, 13}) {
        const ImplicitCase t = make_case(g, m, channels, d, h, w, weight_grad);
        for (const bool accumulate : {false, true}) {
          SCOPED_TRACE(::testing::Message()
                       << "w=" << w << " m=" << m << " channels=" << channels
                       << " accumulate=" << accumulate);
          check(t, accumulate);
        }
      }
    }
  }
}

class ImplicitGemmOracle : public ::testing::TestWithParam<Geom> {};

TEST_P(ImplicitGemmOracle, ForwardMatchesIm2colSgemmBitwise) {
  const Geom g = GetParam();
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  for_each_case(g, false, [&](const ImplicitCase& t, bool accumulate) {
    std::vector<float> want = t.c0;
    testing::im2col_gemm_oracle(t.a.data(), t.im.data(), t.m, t.channels, t.d,
                                t.h, t.w, g.k, g.s, g.p, t.od, t.oh, t.ow,
                                want.data(), accumulate);
    for (ThreadPool* pool : {&pool1, &pool4}) {
      std::vector<float> got = t.c0;
      im2col_gemm_3d(t.a.data(), t.im.data(), t.m, t.channels, t.d, t.h, t.w,
                     g.k, g.s, g.p, t.od, t.oh, t.ow, got.data(), accumulate,
                     pool);
      ASSERT_TRUE(bitwise_equal(got, want)) << "threads=" << pool->size();
    }
  });
}

TEST_P(ImplicitGemmOracle, WeightGradientMatchesIm2colSgemmBitwise) {
  const Geom g = GetParam();
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  for_each_case(g, true, [&](const ImplicitCase& t, bool accumulate) {
    std::vector<float> want = t.c0;
    testing::gemm_im2col_t_oracle(t.a.data(), t.im.data(), t.m, t.channels,
                                  t.d, t.h, t.w, g.k, g.s, g.p, t.od, t.oh,
                                  t.ow, want.data(), accumulate);
    for (ThreadPool* pool : {&pool1, &pool4}) {
      std::vector<float> got = t.c0;
      gemm_im2col_t_3d(t.a.data(), t.im.data(), t.m, t.channels, t.d, t.h,
                       t.w, g.k, g.s, g.p, t.od, t.oh, t.ow, got.data(),
                       accumulate, pool);
      ASSERT_TRUE(bitwise_equal(got, want)) << "threads=" << pool->size();
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Geoms, ImplicitGemmOracle,
    ::testing::Values(Geom{1, 1, 0},  // Conv3d's 1x1x1 head
                      Geom{1, 1, 1}, Geom{1, 2, 0}, Geom{1, 2, 1},
                      Geom{2, 1, 0}, Geom{2, 1, 1},
                      Geom{2, 2, 0},  // ConvTranspose3d's backward
                      Geom{2, 2, 1}, Geom{3, 1, 0},
                      Geom{3, 1, 1},  // Conv3d's "same" 3x3x3
                      Geom{3, 2, 0}, Geom{3, 2, 1}, Geom{5, 1, 0},
                      Geom{5, 1, 1}, Geom{5, 2, 0}, Geom{5, 2, 1}),
    [](const ::testing::TestParamInfo<Geom>& info) {
      const Geom& g = info.param;
      std::ostringstream name;
      name << "k" << g.k << "s" << g.s << "p" << g.p;
      return name.str();
    });

// The implicit kernels against the scalar chain model on the stored
// im2col_3d matrix, with no sgemm in between: what the suites above show
// against sgemm, shown against a model that shares no code with the
// kernels' loop nest. Shapes of the U-Nets' convs (the "same" 3x3x3 and
// the up-convolution's backward) and a strided one; 13 channels make the
// 3x3x3 reduction 351 taps long, across a KC boundary.
TEST(ImplicitGemmChainModel, KernelsEqualKcChainModelBitwise) {
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  for (const Geom g : {Geom{3, 1, 1}, Geom{2, 2, 0}, Geom{3, 2, 1}}) {
    for (const int64_t m : {4, 97}) {
      for (const bool weight_grad : {false, true}) {
        const ImplicitCase t = make_case(g, m, 13, 5, 7, 19, weight_grad);
        std::vector<float> col(static_cast<size_t>(t.taps * t.cols));
        testing::im2col_3d(t.im.data(), t.channels, t.d, t.h, t.w, g.k, g.s,
                           g.p, t.od, t.oh, t.ow, col.data());
        for (const bool accumulate : {false, true}) {
          for (ThreadPool* pool : {&pool1, &pool4}) {
            SCOPED_TRACE(::testing::Message()
                         << "k=" << g.k << " s=" << g.s << " p=" << g.p
                         << " m=" << m << " weight_grad=" << weight_grad
                         << " accumulate=" << accumulate
                         << " threads=" << pool->size());
            std::vector<float> got = t.c0;
            if (weight_grad) {
              gemm_im2col_t_3d(t.a.data(), t.im.data(), t.m, t.channels, t.d,
                               t.h, t.w, g.k, g.s, g.p, t.od, t.oh, t.ow,
                               got.data(), accumulate, pool);
              ASSERT_TRUE(testing::matches_kc_chain(
                  got, t.c0, false, true, t.m, t.taps, t.cols, t.a.data(),
                  t.cols, col.data(), t.cols, accumulate));
            } else {
              im2col_gemm_3d(t.a.data(), t.im.data(), t.m, t.channels, t.d,
                             t.h, t.w, g.k, g.s, g.p, t.od, t.oh, t.ow,
                             got.data(), accumulate, pool);
              ASSERT_TRUE(testing::matches_kc_chain(
                  got, t.c0, false, false, t.m, t.cols, t.taps, t.a.data(),
                  t.taps, col.data(), t.cols, accumulate));
            }
          }
        }
      }
    }
  }
}

// Every pool size splits the output columns differently (one chunk per
// worker, the last one short); each element's arithmetic must not move.
TEST(Im2colGemmTest, ThreadCountInvariance) {
  const Geom g{3, 1, 1};
  const ImplicitCase t = make_case(g, 7, 13, 9, 11, 13, false);
  std::vector<float> want;
  for (const int threads : {1, 2, 3, 4}) {
    ThreadPool pool(threads);
    std::vector<float> got = t.c0;
    im2col_gemm_3d(t.a.data(), t.im.data(), t.m, t.channels, t.d, t.h, t.w,
                   g.k, g.s, g.p, t.od, t.oh, t.ow, got.data(),
                   /*accumulate=*/true, &pool);
    if (want.empty()) want = got;
    EXPECT_TRUE(bitwise_equal(got, want)) << "threads=" << threads;
  }
}

TEST(GemmIm2colTTest, ThreadCountInvariance) {
  const Geom g{3, 1, 1};
  const ImplicitCase t = make_case(g, 7, 13, 9, 11, 13, true);
  std::vector<float> want;
  for (const int threads : {1, 2, 3, 4}) {
    ThreadPool pool(threads);
    std::vector<float> got = t.c0;
    gemm_im2col_t_3d(t.a.data(), t.im.data(), t.m, t.channels, t.d, t.h, t.w,
                     g.k, g.s, g.p, t.od, t.oh, t.ow, got.data(),
                     /*accumulate=*/true, &pool);
    if (want.empty()) want = got;
    EXPECT_TRUE(bitwise_equal(got, want)) << "threads=" << threads;
  }
}

TEST(Im2colGemmTest, RejectsInconsistentExtents) {
  std::vector<float> a(27), im(27), c(27);
  EXPECT_THROW(im2col_gemm_3d(a.data(), im.data(), 1, 1, 3, 3, 3, 3, 1, 1, 2,
                              3, 3, c.data(), false),
               InvalidArgument);
  EXPECT_THROW(gemm_im2col_t_3d(a.data(), im.data(), 1, 1, 3, 3, 3, 3, 1, 1,
                                2, 3, 3, c.data(), false),
               InvalidArgument);
}

}  // namespace
}  // namespace dmis
