#include "tensor/im2col.hpp"

#include <algorithm>
#include <cstring>

#include "common/check.hpp"
#include "tensor/thread_pool.hpp"

namespace dmis {
namespace {

inline int64_t clamp64(int64_t v, int64_t lo, int64_t hi) {
  return std::min(std::max(v, lo), hi);
}

void check_geometry(int64_t channels, int64_t d, int64_t h, int64_t w,
                    int64_t kernel, int64_t stride, int64_t pad, int64_t od,
                    int64_t oh, int64_t ow) {
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
}

}  // namespace

void im2col_3d(const float* im, int64_t channels, int64_t d, int64_t h,
               int64_t w, int64_t kernel, int64_t stride, int64_t pad,
               int64_t od, int64_t oh, int64_t ow, float* col) {
  check_geometry(channels, d, h, w, kernel, stride, pad, od, oh, ow);
  const int64_t k = kernel;
  // Each (c, kz, ky, kx) row writes its own contiguous od*oh*ow block
  // of `col`, so rows shard across the pool with disjoint writes and
  // every element lands bitwise identical to the sequential walk.
  const int64_t rows = channels * k * k * k;
  parallel_for(0, rows, [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      const int64_t c = r / (k * k * k);
      const int64_t kz = r / (k * k) % k;
      const int64_t ky = r / k % k;
      const int64_t kx = r % k;
      const float* imc = im + c * d * h * w;
      float* out = col + r * od * oh * ow;
      for (int64_t z = 0; z < od; ++z) {
        const int64_t iz = z * stride - pad + kz;
        if (iz < 0 || iz >= d) {
          std::fill_n(out, oh * ow, 0.0F);
          out += oh * ow;
          continue;
        }
        for (int64_t y = 0; y < oh; ++y) {
          const int64_t iy = y * stride - pad + ky;
          if (iy < 0 || iy >= h) {
            std::fill_n(out, ow, 0.0F);
            out += ow;
            continue;
          }
          const float* row = imc + (iz * h + iy) * w;
          if (stride == 1) {
            // ix = x + off: zero the out-of-image fringe, memcpy the rest.
            const int64_t off = kx - pad;
            const int64_t lead = clamp64(-off, 0, ow);
            const int64_t end = clamp64(w - off, 0, ow);
            std::fill_n(out, lead, 0.0F);
            if (end > lead) {
              std::memcpy(out + lead, row + lead + off,
                          static_cast<size_t>(end - lead) * sizeof(float));
            }
            std::fill_n(out + std::max(end, lead),
                        ow - std::max(end, lead), 0.0F);
          } else {
            for (int64_t x = 0; x < ow; ++x) {
              const int64_t ix = x * stride - pad + kx;
              out[x] = (ix >= 0 && ix < w) ? row[ix] : 0.0F;
            }
          }
          out += ow;
        }
      }
    }
  });
}

}  // namespace dmis
