#include "col2im_reference.hpp"

#include <cstddef>
#include <vector>

#include "tensor/gemm.hpp"

namespace dmis::testing {

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

}  // namespace dmis::testing
