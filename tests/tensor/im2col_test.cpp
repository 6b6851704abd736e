// The im2col_3d test oracle (tests/tensor/col2im_reference.hpp) against an
// element-by-element gather, and col2im_3d as its adjoint.
#include <gtest/gtest.h>

#include <vector>

#include "col2im_reference.hpp"
#include "common/check.hpp"
#include "tensor/rng.hpp"

namespace dmis {
namespace {

int64_t out_extent(int64_t in, int64_t k, int64_t s, int64_t p) {
  return (in + 2 * p - k) / s + 1;
}

std::vector<float> random_volume(int64_t n, Rng& rng) {
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

/// Element-by-element gather reference for one (c, kz, ky, kx, od, oh, ow).
std::vector<float> reference_im2col(const std::vector<float>& im, int64_t c,
                                    int64_t d, int64_t h, int64_t w,
                                    int64_t k, int64_t s, int64_t p,
                                    int64_t od, int64_t oh, int64_t ow) {
  std::vector<float> col(static_cast<size_t>(c * k * k * k * od * oh * ow));
  int64_t row = 0;
  for (int64_t ci = 0; ci < c; ++ci) {
    for (int64_t kz = 0; kz < k; ++kz) {
      for (int64_t ky = 0; ky < k; ++ky) {
        for (int64_t kx = 0; kx < k; ++kx, ++row) {
          int64_t colidx = 0;
          for (int64_t z = 0; z < od; ++z) {
            for (int64_t y = 0; y < oh; ++y) {
              for (int64_t x = 0; x < ow; ++x, ++colidx) {
                const int64_t iz = z * s - p + kz;
                const int64_t iy = y * s - p + ky;
                const int64_t ix = x * s - p + kx;
                float v = 0.0F;
                if (iz >= 0 && iz < d && iy >= 0 && iy < h && ix >= 0 &&
                    ix < w) {
                  v = im[static_cast<size_t>(((ci * d + iz) * h + iy) * w +
                                             ix)];
                }
                col[static_cast<size_t>(row * od * oh * ow + colidx)] = v;
              }
            }
          }
        }
      }
    }
  }
  return col;
}

struct Geom {
  int64_t c, d, h, w, k, s, p;
};

class Im2colGeometry : public ::testing::TestWithParam<Geom> {};

TEST_P(Im2colGeometry, MatchesGatherReference) {
  const Geom g = GetParam();
  const int64_t od = out_extent(g.d, g.k, g.s, g.p);
  const int64_t oh = out_extent(g.h, g.k, g.s, g.p);
  const int64_t ow = out_extent(g.w, g.k, g.s, g.p);
  Rng rng(31 + static_cast<uint64_t>(g.k * 10 + g.s));
  const auto im = random_volume(g.c * g.d * g.h * g.w, rng);
  std::vector<float> col(
      static_cast<size_t>(g.c * g.k * g.k * g.k * od * oh * ow), -7.0F);
  testing::im2col_3d(im.data(), g.c, g.d, g.h, g.w, g.k, g.s, g.p, od, oh, ow,
            col.data());
  const auto want =
      reference_im2col(im, g.c, g.d, g.h, g.w, g.k, g.s, g.p, od, oh, ow);
  ASSERT_EQ(col.size(), want.size());
  for (size_t i = 0; i < col.size(); ++i) {
    ASSERT_EQ(col[i], want[i]) << "flat index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Im2colGeometry,
    ::testing::Values(Geom{1, 3, 3, 3, 1, 1, 0},   // identity lowering
                      Geom{2, 5, 4, 6, 3, 1, 1},   // "same" 3x3x3
                      Geom{3, 7, 5, 9, 3, 2, 1},   // strided, odd extents
                      Geom{2, 6, 6, 4, 2, 2, 0},   // pooling-like
                      Geom{1, 9, 7, 5, 5, 1, 2},   // wide kernel
                      Geom{2, 5, 5, 5, 3, 1, 0}),  // valid (no pad)
    [](const ::testing::TestParamInfo<Geom>& info) {
      const Geom& g = info.param;
      return "c" + std::to_string(g.c) + "d" + std::to_string(g.d) + "h" +
             std::to_string(g.h) + "w" + std::to_string(g.w) + "k" +
             std::to_string(g.k) + "s" + std::to_string(g.s) + "p" +
             std::to_string(g.p);
    });

TEST(Im2colTest, Kernel1Stride1IsIdentity) {
  Rng rng(5);
  const auto im = random_volume(2 * 3 * 4 * 5, rng);
  std::vector<float> col(im.size());
  testing::im2col_3d(im.data(), 2, 3, 4, 5, 1, 1, 0, 3, 4, 5, col.data());
  EXPECT_EQ(col, im);
}

TEST(Im2colTest, Col2imIsAdjointOfIm2col) {
  // <col_grad, im2col(x)> == <col2im(col_grad), x> for random tensors —
  // the defining property that makes the gemm backward pass correct.
  const int64_t c = 2, d = 5, h = 6, w = 7, k = 3, s = 2, p = 1;
  const int64_t od = out_extent(d, k, s, p), oh = out_extent(h, k, s, p),
                ow = out_extent(w, k, s, p);
  const int64_t rows = c * k * k * k, cols = od * oh * ow;
  Rng rng(99);
  const auto x = random_volume(c * d * h * w, rng);
  const auto cg = random_volume(rows * cols, rng);

  std::vector<float> col(static_cast<size_t>(rows * cols));
  testing::im2col_3d(x.data(), c, d, h, w, k, s, p, od, oh, ow, col.data());
  std::vector<float> back(x.size(), 0.0F);
  testing::col2im_3d(cg.data(), c, d, h, w, k, s, p, od, oh, ow, back.data());

  double lhs = 0.0, rhs = 0.0;
  for (size_t i = 0; i < col.size(); ++i) {
    lhs += static_cast<double>(cg[i]) * col[i];
  }
  for (size_t i = 0; i < x.size(); ++i) {
    rhs += static_cast<double>(back[i]) * x[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-3 * std::max(1.0, std::abs(lhs)));
}

TEST(Im2colTest, Col2imAccumulatesIntoExistingImage) {
  const int64_t c = 1, d = 2, h = 2, w = 2;
  std::vector<float> col(8, 1.0F);  // k=1 s=1: one row, identity scatter
  std::vector<float> im(8, 0.5F);
  testing::col2im_3d(col.data(), c, d, h, w, 1, 1, 0, 2, 2, 2, im.data());
  for (float v : im) EXPECT_FLOAT_EQ(v, 1.5F);
}

TEST(Im2colTest, RejectsInconsistentOutputExtents) {
  std::vector<float> im(27), col(27);
  EXPECT_THROW(
      testing::im2col_3d(im.data(), 1, 3, 3, 3, 1, 1, 0, 2, 3, 3, col.data()),
      InvalidArgument);
}

}  // namespace
}  // namespace dmis
