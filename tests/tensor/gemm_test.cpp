#include "tensor/gemm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "col2im_reference.hpp"
#include "common/check.hpp"
#include "tensor/rng.hpp"
#include "tensor/thread_pool.hpp"

namespace dmis {
namespace {

std::vector<float> random_matrix(int64_t rows, int64_t cols, Rng& rng) {
  std::vector<float> m(static_cast<size_t>(rows * cols));
  for (auto& v : m) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return m;
}

/// Scalar triple-loop reference with double accumulation.
void reference_gemm(bool trans_a, bool trans_b, int64_t m, int64_t n,
                    int64_t k, const float* a, int64_t lda, const float* b,
                    int64_t ldb, float* c, int64_t ldc, bool accumulate) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = accumulate ? static_cast<double>(c[i * ldc + j]) : 0.0;
      for (int64_t p = 0; p < k; ++p) {
        const float av = trans_a ? a[p * lda + i] : a[i * lda + p];
        const float bv = trans_b ? b[j * ldb + p] : b[p * ldb + j];
        acc += static_cast<double>(av) * static_cast<double>(bv);
      }
      c[i * ldc + j] = static_cast<float>(acc);
    }
  }
}

void expect_close(const std::vector<float>& got,
                  const std::vector<float>& want, int64_t k) {
  ASSERT_EQ(got.size(), want.size());
  // float32 dot products of k uniform[-1,1] terms: scale the tolerance
  // with sqrt(k) rounding growth.
  const double tol = 1e-5 * std::max(1.0, std::sqrt(static_cast<double>(k)));
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got[i], want[i], tol) << "element " << i;
  }
}

struct GemmCase {
  int64_t m, n, k;
};

// Shapes chosen to exercise every ragged edge of the blocking: smaller
// than one register tile, exact multiples, one-past multiples of the
// 6x16 microkernel, and sizes crossing the MC=96 / KC=256 / NC=2048
// cache-block boundaries.
const GemmCase kCases[] = {
    {1, 1, 1},    {1, 1, 7},     {3, 5, 7},    {6, 16, 32},
    {7, 17, 19},  {8, 4096, 216}, {13, 31, 257}, {97, 33, 100},
    {100, 2049, 3}, {192, 48, 512},
};

class SgemmShapes : public ::testing::TestWithParam<GemmCase> {};

TEST_P(SgemmShapes, MatchesScalarReferenceAllTransCombos) {
  const GemmCase t = GetParam();
  Rng rng(0xC0FFEE ^ static_cast<uint64_t>(t.m * 1000003 + t.n * 17 + t.k));
  for (const bool trans_a : {false, true}) {
    for (const bool trans_b : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "trans_a=" << trans_a
                                        << " trans_b=" << trans_b);
      const auto a = trans_a ? random_matrix(t.k, t.m, rng)
                             : random_matrix(t.m, t.k, rng);
      const auto b = trans_b ? random_matrix(t.n, t.k, rng)
                             : random_matrix(t.k, t.n, rng);
      const int64_t lda = trans_a ? t.m : t.k;
      const int64_t ldb = trans_b ? t.k : t.n;
      std::vector<float> got(static_cast<size_t>(t.m * t.n), 0.0F);
      std::vector<float> want(static_cast<size_t>(t.m * t.n), 0.0F);
      sgemm(trans_a, trans_b, t.m, t.n, t.k, a.data(), lda, b.data(), ldb,
            got.data(), t.n);
      reference_gemm(trans_a, trans_b, t.m, t.n, t.k, a.data(), lda, b.data(),
                     ldb, want.data(), t.n, false);
      expect_close(got, want, t.k);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, SgemmShapes, ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<GemmCase>& info) {
                           return "m" + std::to_string(info.param.m) + "n" +
                                  std::to_string(info.param.n) + "k" +
                                  std::to_string(info.param.k);
                         });

TEST(SgemmTest, AccumulateAddsOntoExistingC) {
  Rng rng(7);
  const int64_t m = 19, n = 45, k = 33;
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  auto got = random_matrix(m, n, rng);
  auto want = got;
  sgemm(false, false, m, n, k, a.data(), k, b.data(), n, got.data(), n,
        /*accumulate=*/true);
  reference_gemm(false, false, m, n, k, a.data(), k, b.data(), n, want.data(),
                 n, /*accumulate=*/true);
  expect_close(got, want, k);
}

TEST(SgemmTest, RespectsLeadingDimensions) {
  // Operate on the interior of larger allocations: ld > logical extent.
  Rng rng(11);
  const int64_t m = 9, n = 14, k = 21;
  const int64_t lda = k + 5, ldb = n + 3, ldc = n + 7;
  const auto a = random_matrix(m, lda, rng);
  const auto b = random_matrix(k, ldb, rng);
  std::vector<float> got(static_cast<size_t>(m * ldc), -1.0F);
  auto want = got;
  sgemm(false, false, m, n, k, a.data(), lda, b.data(), ldb, got.data(), ldc);
  reference_gemm(false, false, m, n, k, a.data(), lda, b.data(), ldb,
                 want.data(), ldc, false);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < ldc; ++j) {
      if (j < n) {
        ASSERT_NEAR(got[i * ldc + j], want[i * ldc + j], 1e-4F);
      } else {
        // Padding beyond n must be untouched.
        ASSERT_EQ(got[i * ldc + j], -1.0F) << "row " << i << " col " << j;
      }
    }
  }
}

TEST(SgemmTest, KZeroZeroesOrKeepsC) {
  std::vector<float> c(12, 3.0F);
  sgemm(false, false, 3, 4, 0, nullptr, 0, nullptr, 0, c.data(), 4,
        /*accumulate=*/true);
  for (float v : c) EXPECT_EQ(v, 3.0F);
  sgemm(false, false, 3, 4, 0, nullptr, 0, nullptr, 0, c.data(), 4,
        /*accumulate=*/false);
  for (float v : c) EXPECT_EQ(v, 0.0F);
}

TEST(SgemmTest, RejectsBadLeadingDimensions) {
  std::vector<float> a(6), b(6), c(4);
  EXPECT_THROW(sgemm(false, false, 2, 2, 3, a.data(), 2, b.data(), 2,
                     c.data(), 2),
               InvalidArgument);
  EXPECT_THROW(sgemm(false, false, 2, 2, 3, a.data(), 3, b.data(), 2,
                     c.data(), 1),
               InvalidArgument);
}

TEST(SgemmTest, ThreadCountInvariance) {
  // Per-element accumulation order is fixed by the serial k-blocking, so
  // any worker count must produce bitwise-identical results.
  Rng rng(23);
  const int64_t m = 200, n = 300, k = 300;  // several MC blocks, 2 KC blocks
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  std::vector<float> c1(static_cast<size_t>(m * n));
  std::vector<float> c4(static_cast<size_t>(m * n));
  sgemm(false, false, m, n, k, a.data(), k, b.data(), n, c1.data(), n, false,
        &pool1);
  sgemm(false, false, m, n, k, a.data(), k, b.data(), n, c4.data(), n, false,
        &pool4);
  for (size_t i = 0; i < c1.size(); ++i) {
    ASSERT_EQ(c1[i], c4[i]) << "element " << i
                            << " differs between 1 and 4 threads";
  }
}

// Bitwise equality with a scalar model of the specified arithmetic (one
// chain per KC block from +0, blocks added in order), which shares no
// code with the blocked loop nest: the conv kernels' oracle suites run
// sgemm too, so they alone cannot show that the loop nest keeps its bits.
TEST(SgemmTest, EqualsKcChainModelBitwise) {
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  for (const GemmCase t : kCases) {
    Rng rng(0xB175 ^ static_cast<uint64_t>(t.m * 1000003 + t.n * 17 + t.k));
    for (const bool trans_a : {false, true}) {
      for (const bool trans_b : {false, true}) {
        const auto a = random_matrix(t.m, t.k, rng);
        const auto b = random_matrix(t.k, t.n, rng);
        const int64_t lda = trans_a ? t.m : t.k;
        const int64_t ldb = trans_b ? t.k : t.n;
        const auto c0 = random_matrix(t.m, t.n, rng);
        for (const bool accumulate : {false, true}) {
          for (ThreadPool* pool : {&pool1, &pool4}) {
            SCOPED_TRACE(::testing::Message()
                         << "m=" << t.m << " n=" << t.n << " k=" << t.k
                         << " trans_a=" << trans_a << " trans_b=" << trans_b
                         << " accumulate=" << accumulate
                         << " threads=" << pool->size());
            auto got = c0;
            sgemm(trans_a, trans_b, t.m, t.n, t.k, a.data(), lda, b.data(),
                  ldb, got.data(), t.n, accumulate, pool);
            ASSERT_TRUE(testing::matches_kc_chain(got, c0, trans_a, trans_b,
                                                  t.m, t.n, t.k, a.data(),
                                                  lda, b.data(), ldb,
                                                  accumulate));
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace dmis
