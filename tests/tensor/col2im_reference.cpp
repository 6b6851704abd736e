#include "col2im_reference.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <vector>

#include "common/check.hpp"
#include "tensor/gemm.hpp"

namespace dmis::testing {

void im2col_3d(const float* im, int64_t channels, int64_t d, int64_t h,
               int64_t w, int64_t kernel, int64_t stride, int64_t pad,
               int64_t od, int64_t oh, int64_t ow, float* col) {
  DMIS_CHECK(channels > 0 && d > 0 && h > 0 && w > 0,
             "im2col: bad image " << channels << "x" << d << "x" << h << "x"
                                  << w);
  DMIS_CHECK(kernel >= 1 && stride >= 1 && pad >= 0,
             "im2col: bad geometry k=" << kernel << " s=" << stride
                                       << " p=" << pad);
  DMIS_CHECK(od == (d + 2 * pad - kernel) / stride + 1 &&
                 oh == (h + 2 * pad - kernel) / stride + 1 &&
                 ow == (w + 2 * pad - kernel) / stride + 1,
             "im2col: output extents " << od << "x" << oh << "x" << ow
                                       << " inconsistent with geometry");
  const int64_t k = kernel;
  float* out = col;
  for (int64_t c = 0; c < channels; ++c) {
    const float* imc = im + c * d * h * w;
    for (int64_t kz = 0; kz < k; ++kz) {
      for (int64_t ky = 0; ky < k; ++ky) {
        for (int64_t kx = 0; kx < k; ++kx) {
          for (int64_t z = 0; z < od; ++z) {
            const int64_t iz = z * stride - pad + kz;
            for (int64_t y = 0; y < oh; ++y) {
              const int64_t iy = y * stride - pad + ky;
              for (int64_t x = 0; x < ow; ++x, ++out) {
                const int64_t ix = x * stride - pad + kx;
                const bool inside = iz >= 0 && iz < d && iy >= 0 && iy < h &&
                                    ix >= 0 && ix < w;
                *out = inside ? imc[(iz * h + iy) * w + ix] : 0.0F;
              }
            }
          }
        }
      }
    }
  }
}

void col2im_3d(const float* col, int64_t channels, int64_t d, int64_t h,
               int64_t w, int64_t kernel, int64_t stride, int64_t pad,
               int64_t od, int64_t oh, int64_t ow, float* im) {
  const int64_t k = kernel;
  const float* in = col;
  for (int64_t c = 0; c < channels; ++c) {
    float* imc = im + c * d * h * w;
    for (int64_t kz = 0; kz < k; ++kz) {
      for (int64_t ky = 0; ky < k; ++ky) {
        for (int64_t kx = 0; kx < k; ++kx) {
          for (int64_t z = 0; z < od; ++z) {
            const int64_t iz = z * stride - pad + kz;
            for (int64_t y = 0; y < oh; ++y) {
              const int64_t iy = y * stride - pad + ky;
              for (int64_t x = 0; x < ow; ++x, ++in) {
                const int64_t ix = x * stride - pad + kx;
                if (iz >= 0 && iz < d && iy >= 0 && iy < h && ix >= 0 &&
                    ix < w) {
                  imc[(iz * h + iy) * w + ix] += *in;
                }
              }
            }
          }
        }
      }
    }
  }
}

void col2im_gemm_oracle(const float* wt, const float* g, int64_t reduced,
                        int64_t channels, int64_t d, int64_t h, int64_t w,
                        int64_t kernel, int64_t stride, int64_t pad,
                        int64_t od, int64_t oh, int64_t ow, float* im) {
  const int64_t taps = channels * kernel * kernel * kernel;
  const int64_t cols = od * oh * ow;
  std::vector<float> col(static_cast<size_t>(taps * cols));
  sgemm(true, false, taps, cols, reduced, wt, taps, g, cols, col.data(),
        cols, /*accumulate=*/false);
  col2im_3d(col.data(), channels, d, h, w, kernel, stride, pad, od, oh, ow,
            im);
}

void im2col_gemm_oracle(const float* a, const float* im, int64_t m,
                        int64_t channels, int64_t d, int64_t h, int64_t w,
                        int64_t kernel, int64_t stride, int64_t pad,
                        int64_t od, int64_t oh, int64_t ow, float* c,
                        bool accumulate) {
  const int64_t taps = channels * kernel * kernel * kernel;
  const int64_t cols = od * oh * ow;
  std::vector<float> col(static_cast<size_t>(taps * cols));
  im2col_3d(im, channels, d, h, w, kernel, stride, pad, od, oh, ow,
            col.data());
  sgemm(false, false, m, cols, taps, a, taps, col.data(), cols, c, cols,
        accumulate);
}

void gemm_im2col_t_oracle(const float* a, const float* im, int64_t m,
                          int64_t channels, int64_t d, int64_t h, int64_t w,
                          int64_t kernel, int64_t stride, int64_t pad,
                          int64_t od, int64_t oh, int64_t ow, float* c,
                          bool accumulate) {
  const int64_t taps = channels * kernel * kernel * kernel;
  const int64_t cols = od * oh * ow;
  std::vector<float> col(static_cast<size_t>(taps * cols));
  im2col_3d(im, channels, d, h, w, kernel, stride, pad, od, oh, ow,
            col.data());
  sgemm(false, true, m, taps, cols, a, cols, col.data(), cols, c, taps,
        accumulate);
}

void kc_chain_gemm(bool fused, bool trans_a, bool trans_b, int64_t m,
                   int64_t n, int64_t k, const float* a, int64_t lda,
                   const float* b, int64_t ldb, float* c, int64_t ldc,
                   bool accumulate) {
  constexpr int64_t kBlock = 256;  // tensor/gemm.cpp's KC
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float& out = c[i * ldc + j];
      for (int64_t p0 = 0; p0 < k; p0 += kBlock) {
        float chain = 0.0F;
        for (int64_t p = p0; p < std::min(k, p0 + kBlock); ++p) {
          const float x = trans_a ? a[p * lda + i] : a[i * lda + p];
          const float y = trans_b ? b[j * ldb + p] : b[p * ldb + j];
          if (fused) {
            chain = std::fma(x, y, chain);
          } else {
            const float prod = x * y;
            chain += prod;
          }
        }
        out = (p0 == 0 && !accumulate) ? chain : out + chain;
      }
    }
  }
}

bool matches_kc_chain(const std::vector<float>& got, std::vector<float> c0,
                      bool trans_a, bool trans_b, int64_t m, int64_t n,
                      int64_t k, const float* a, int64_t lda, const float* b,
                      int64_t ldb, bool accumulate) {
  for (const bool fused : {true, false}) {
    std::vector<float> want = c0;
    kc_chain_gemm(fused, trans_a, trans_b, m, n, k, a, lda, b, ldb,
                  want.data(), n, accumulate);
    if (got.size() == want.size() &&
        std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) ==
            0) {
      return true;
    }
  }
  return false;
}

}  // namespace dmis::testing
