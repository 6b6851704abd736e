#include "tensor/gemm.hpp"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "tensor/thread_pool.hpp"

namespace dmis {
namespace {

// Register tile: MR rows x NR columns of C per microkernel call. NR spans
// whole vector registers; MR is sized so the accumulator tile fits the
// register file with room for the A broadcast and B loads.
constexpr int64_t MR = 6;
constexpr int64_t NR = 16;

// Cache blocking: an MC x KC block of A (L2-resident) meets KC x NR
// micro-panels of B, each packed (L1-resident) right before its use. A
// work item covers at most MC rows and NC columns of C.
constexpr int64_t MC = 96;
constexpr int64_t KC = 256;
constexpr int64_t NC = 2048;

// A product is split over threads only in shares of at least this many
// multiply-adds (about 60 us on one core); smaller ones, such as the
// 1x1x1 head, run inline. On a 4-core AVX-512 host, splitting products
// of 2^13..2^18 four ways was 1.2-2x slower than running them inline,
// even at 2^19..2^20 it only broke even, and at 1.8M it won.
constexpr int64_t kMinItemMacs = int64_t{1} << 18;

static_assert(MC % MR == 0 && NC % NR == 0);

// Stands in for the A rows past the end of a ragged row tile.
alignas(64) constexpr float kZeros[KC] = {};

// 8-wide float vector (lowered to whatever the target ISA offers);
// aligned(4) keeps loads/stores legal on unaligned addresses.
using v8sf = float __attribute__((vector_size(32), aligned(4)));

inline v8sf splat(float x) { return v8sf{x, x, x, x, x, x, x, x}; }

/// acc[r][c] = sum over kk < kc of a[r][kk] * b[kk][c], for the MR rows
/// `a` and the kc rows `b` of NR floats each: an MR x NR tile of C held in
/// MR * NR / 8 vector accumulators (the loops over them unroll fully, so
/// the tile stays in registers across the k loop).
void micro_kernel(int64_t kc, const float* const* a, const float* const* b,
                  float* acc) {
  constexpr int64_t V = NR / 8;
  v8sf c[MR][V];
  const float* ar[MR];
#pragma GCC unroll 16
  for (int64_t r = 0; r < MR; ++r) {
    ar[r] = a[r];
#pragma GCC unroll 2
    for (int64_t v = 0; v < V; ++v) c[r][v] = v8sf{};
  }
  for (int64_t kk = 0; kk < kc; ++kk) {
    v8sf bv[V];
#pragma GCC unroll 2
    for (int64_t v = 0; v < V; ++v) {
      bv[v] = *reinterpret_cast<const v8sf*>(b[kk] + 8 * v);
    }
#pragma GCC unroll 16
    for (int64_t r = 0; r < MR; ++r) {
      const v8sf x = splat(ar[r][kk]);
#pragma GCC unroll 2
      for (int64_t v = 0; v < V; ++v) c[r][v] += x * bv[v];
    }
  }
  v8sf* out = reinterpret_cast<v8sf*>(acc);
#pragma GCC unroll 16
  for (int64_t r = 0; r < MR; ++r) {
#pragma GCC unroll 2
    for (int64_t v = 0; v < V; ++v) out[r * V + v] = c[r][v];
  }
}

/// Writes (or accumulates) the valid mr x nr corner of the tile into C at
/// row i, column j — or, with trans_c, into C^T (C[j + q][i + r]).
void store_tile(const float* acc, float* c, int64_t ldc, bool trans_c,
                int64_t i, int64_t j, int64_t mr, int64_t nr,
                bool overwrite) {
  for (int64_t r = 0; r < mr; ++r) {
    const float* arow = acc + r * NR;
    if (trans_c) {
      float* ccol = c + j * ldc + i + r;
      for (int64_t q = 0; q < nr; ++q) {
        ccol[q * ldc] = overwrite ? arow[q] : ccol[q * ldc] + arow[q];
      }
      continue;
    }
    float* crow = c + (i + r) * ldc + j;
    if (overwrite) {
      for (int64_t q = 0; q < nr; ++q) crow[q] = arow[q];
    } else {
      for (int64_t q = 0; q < nr; ++q) crow[q] += arow[q];
    }
  }
}

/// The loop nest of every product here: C = A * B ([m, n], or stored
/// transposed as [n, m] with trans_c), overwritten or, with `accumulate`,
/// added to. Neither operand need be stored as a matrix:
///   pack_a(i0, p0, mc, kc, buf, rows) points rows[r] (r < mc) at the kc
///     entries A[i0 + r][p0 ..], packing them into `buf` (room for mc x
///     kc floats) where they are not stored contiguously;
///   pack_b(p0, j0, kc, nr, buf, rows) points rows[kk] (kk < kc) at NR
///     floats starting with B[p0 + kk][j0 .. j0 + nr), packing into `buf`
///     (room for KC x NR floats) where needed; lanes past nr are ignored.
///
/// Work items are (row block, column chunk) pairs, with the longer side
/// of C cut so every core of the caller's share gets work even when the
/// other side is one block — convs have Cout <= 96 but thousands of
/// voxels or taps — unless the product is too small to be worth it. Each
/// C element sees one FMA chain per KC block, the blocks added in order,
/// whatever the split, so results are bitwise identical for any thread
/// count.
template <class PackA, class PackB>
void blocked_gemm(int64_t m, int64_t n, int64_t k, const PackA& pack_a,
                  const PackB& pack_b, float* c, int64_t ldc, bool trans_c,
                  bool accumulate, ThreadPool& tp) {
  const int64_t units = std::clamp<int64_t>(
      m * n * k / kMinItemMacs, 1, std::min(tp.size(), intra_op_share()));
  int64_t mch = MC;
  int64_t nch = NC;
  if (n >= m) {
    nch = std::min(NC, ((n + units - 1) / units + NR - 1) / NR * NR);
  } else {
    mch = std::min(MC, ((m + units - 1) / units + MR - 1) / MR * MR);
  }
  const int64_t mblocks = (m + mch - 1) / mch;
  const int64_t nchunks = (n + nch - 1) / nch;
  const auto run = [&](int64_t lo, int64_t hi) {
    thread_local std::vector<float> abuf;
    thread_local std::vector<const float*> arows;
    float bbuf[KC * NR];
    const float* brows[KC];
    float acc[MR * NR];
    for (int64_t item = lo; item < hi; ++item) {
      const int64_t i0 = item % mblocks * mch;
      const int64_t j0 = item / mblocks * nch;
      const int64_t mc = std::min(mch, m - i0);
      const int64_t nc = std::min(nch, n - j0);
      const int64_t mc_pad = (mc + MR - 1) / MR * MR;
      if (static_cast<int64_t>(abuf.size()) < mc * KC) {
        abuf.resize(static_cast<size_t>(mc * KC));
      }
      arows.resize(static_cast<size_t>(mc_pad));
      std::fill(arows.begin() + mc, arows.end(), kZeros);
      for (int64_t p0 = 0; p0 < k; p0 += KC) {
        const int64_t kc = std::min(KC, k - p0);
        pack_a(i0, p0, mc, kc, abuf.data(), arows.data());
        // First k-block overwrites C unless accumulating; later blocks add.
        const bool overwrite = (p0 == 0) && !accumulate;
        for (int64_t jr = 0; jr < nc; jr += NR) {
          const int64_t nr = std::min(NR, nc - jr);
          pack_b(p0, j0 + jr, kc, nr, bbuf, brows);
          for (int64_t ir = 0; ir < mc; ir += MR) {
            micro_kernel(kc, arows.data() + ir, brows, acc);
            store_tile(acc, c, ldc, trans_c, i0 + ir, j0 + jr,
                       std::min(MR, mc - ir), nr, overwrite);
          }
        }
      }
    }
  };
  if (units == 1) {
    run(0, mblocks * nchunks);
  } else {
    parallel_for(tp, 0, mblocks * nchunks, run);
  }
}

}  // namespace

void sgemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
           const float* a, int64_t lda, const float* b, int64_t ldb, float* c,
           int64_t ldc, bool accumulate, ThreadPool* pool) {
  DMIS_CHECK(m >= 0 && n >= 0 && k >= 0,
             "sgemm: bad sizes m=" << m << " n=" << n << " k=" << k);
  DMIS_CHECK(ldc >= n, "sgemm: ldc=" << ldc << " too small");
  if (m == 0 || n == 0) return;
  if (k == 0) {  // A and B are never touched; their strides are irrelevant.
    if (!accumulate) {
      for (int64_t r = 0; r < m; ++r) std::fill_n(c + r * ldc, n, 0.0F);
    }
    return;
  }
  DMIS_CHECK(lda >= (trans_a ? m : k), "sgemm: lda=" << lda << " too small");
  DMIS_CHECK(ldb >= (trans_b ? k : n), "sgemm: ldb=" << ldb << " too small");
  // Rows of A are read in place; A^T and every B micro-panel are packed.
  const auto pack_a = [&](int64_t i0, int64_t p0, int64_t mc, int64_t kc,
                          float* buf, const float** rows) {
    for (int64_t r = 0; r < mc; ++r) {
      rows[r] = trans_a ? buf + r * kc : a + (i0 + r) * lda + p0;
    }
    if (!trans_a) return;
    for (int64_t kk = 0; kk < kc; ++kk) {
      const float* src = a + (p0 + kk) * lda + i0;
      for (int64_t r = 0; r < mc; ++r) buf[r * kc + kk] = src[r];
    }
  };
  const auto pack_b = [&](int64_t p0, int64_t j0, int64_t kc, int64_t nr,
                          float* buf, const float** rows) {
    for (int64_t kk = 0; kk < kc; ++kk) {
      float* dst = buf + kk * NR;
      rows[kk] = dst;
      if (!trans_b && nr == NR) {
        std::memcpy(dst, b + (p0 + kk) * ldb + j0, NR * sizeof(float));
        continue;
      }
      for (int64_t q = 0; q < nr; ++q) {
        dst[q] = trans_b ? b[(j0 + q) * ldb + p0 + kk]
                         : b[(p0 + kk) * ldb + j0 + q];
      }
      std::fill(dst + nr, dst + NR, 0.0F);
    }
  };
  blocked_gemm(m, n, k, pack_a, pack_b, c, ldc, /*trans_c=*/false,
               accumulate, (pool != nullptr) ? *pool : ThreadPool::global());
}

namespace {

/// Checks a conv geometry: `im` (channels, d, h, w) under kernel, stride
/// and pad has the output grid od x oh x ow, and `m` rows meet it.
void check_conv_geometry(const char* who, int64_t m, int64_t channels,
                         int64_t d, int64_t h, int64_t w, int64_t kernel,
                         int64_t stride, int64_t pad, int64_t od, int64_t oh,
                         int64_t ow) {
  DMIS_CHECK(m > 0 && channels > 0 && d > 0 && h > 0 && w > 0,
             who << ": bad sizes m=" << m << " image " << channels << "x" << d
                 << "x" << h << "x" << w);
  DMIS_CHECK(kernel >= 1 && stride >= 1 && pad >= 0,
             who << ": bad geometry k=" << kernel << " s=" << stride
                 << " p=" << pad);
  DMIS_CHECK(od == (d + 2 * pad - kernel) / stride + 1 &&
                 oh == (h + 2 * pad - kernel) / stride + 1 &&
                 ow == (w + 2 * pad - kernel) / stride + 1 && od > 0 &&
                 oh > 0 && ow > 0,
             who << ": extents " << od << "x" << oh << "x" << ow
                 << " inconsistent with geometry");
}

// Implicit GEMM. The lowered matrix im2col(X) has a row per tap
// (c, kz, ky, kx) and a column per output voxel (z, y, x); its entry is
// the image voxel the tap reads at that output, or 0 in the padding. The
// packers below hand blocked_gemm stretches of it straight from the
// image — with its padding written out, so every tap reads inside it —
// copying only where a stretch is not contiguous there. blocked_gemm
// thus multiplies exactly the numbers sgemm would read from a stored
// column matrix, in the same order.

/// A conv input under stride s, held as a (channels, pd, ph, pw) image
/// whose border is the conv's padding, with output rows oh x ow: tap
/// t = (c, kz, ky, kx) at output voxel (z, y, x) reads
/// im[tap_off[t] + ((z*ph + y)*pw + x) * s], with
/// tap_off[t] = ((c*pd + kz)*ph + ky)*pw + kx.
struct ConvInput {
  const float* im;
  const int64_t* tap_off;
  int64_t s, oh, ow, ph, pw;
};

/// `im` (channels, d, h, w) as a ConvInput: itself when pad is 0, else a
/// zero-bordered copy. The copy and the tap offsets live in thread_local
/// grow-only buffers of the calling thread, valid until its next call.
ConvInput conv_input(const float* im, int64_t channels, int64_t d, int64_t h,
                     int64_t w, int64_t k, int64_t s, int64_t p, int64_t oh,
                     int64_t ow) {
  const int64_t pd = d + 2 * p, ph = h + 2 * p, pw = w + 2 * p;
  thread_local std::vector<int64_t> tap_off;
  tap_off.resize(static_cast<size_t>(channels * k * k * k));
  int64_t* off = tap_off.data();
  for (int64_t c = 0; c < channels; ++c) {
    for (int64_t kz = 0; kz < k; ++kz) {
      for (int64_t ky = 0; ky < k; ++ky) {
        for (int64_t kx = 0; kx < k; ++kx) {
          *off++ = ((c * pd + kz) * ph + ky) * pw + kx;
        }
      }
    }
  }
  const ConvInput g{im, tap_off.data(), s, oh, ow, ph, pw};
  if (p == 0) return g;
  thread_local std::vector<float> padded;
  padded.assign(static_cast<size_t>(channels * pd * ph * pw), 0.0F);
  for (int64_t c = 0; c < channels; ++c) {
    for (int64_t z = 0; z < d; ++z) {
      for (int64_t y = 0; y < h; ++y) {
        std::memcpy(padded.data() + ((c * pd + z + p) * ph + y + p) * pw + p,
                    im + ((c * d + z) * h + y) * w,
                    static_cast<size_t>(w) * sizeof(float));
      }
    }
  }
  return {padded.data(), tap_off.data(), s, oh, ow, ph, pw};
}

/// Output voxels (z, y, x0 .. x0 + len) along one x row, which are
/// lowered columns first .. first + len of a packed range; voxel i of the
/// run reads im[tap_off[t] + off + i*s] for tap t.
struct Run {
  int64_t off, len, first;
};

/// Splits the lowered columns [j0, j0 + n) into row runs; returns how
/// many it wrote to `runs` (at most n).
int64_t row_runs(const ConvInput& g, int64_t j0, int64_t n, Run* runs) {
  int64_t x = j0 % g.ow, y = j0 / g.ow % g.oh, z = j0 / (g.ow * g.oh);
  int64_t count = 0;
  for (int64_t i = 0; i < n;) {
    const int64_t len = std::min(n - i, g.ow - x);
    runs[count++] = Run{((z * g.ph + y) * g.pw + x) * g.s, len, i};
    i += len;
    x = 0;
    if (++y == g.oh) {
      y = 0;
      ++z;
    }
  }
  return count;
}

/// Copies tap `t`'s entries over `runs` to dst[runs[i].first ..].
void gather_runs(const ConvInput& g, int64_t t, const Run* runs,
                 int64_t nruns, float* dst) {
  for (int64_t i = 0; i < nruns; ++i) {
    const float* src = g.im + g.tap_off[t] + runs[i].off;
    float* out = dst + runs[i].first;
    if (g.s == 1) {
      std::memcpy(out, src, static_cast<size_t>(runs[i].len) * sizeof(float));
    } else {
      for (int64_t v = 0; v < runs[i].len; ++v) out[v] = src[v * g.s];
    }
  }
}

/// pack_b over im2col(X): row kk is tap p0 + kk at voxels j0 .. j0 + nr,
/// read in place when those voxels are one stride-1 run of NR, else
/// gathered into `buf`.
void pack_im2col(const ConvInput& g, int64_t p0, int64_t j0, int64_t kc,
                 int64_t nr, float* buf, const float** rows) {
  Run runs[NR];
  const int64_t nruns = row_runs(g, j0, nr, runs);
  if (nruns == 1 && nr == NR && g.s == 1) {
    const float* base = g.im + runs[0].off;
    for (int64_t kk = 0; kk < kc; ++kk) rows[kk] = base + g.tap_off[p0 + kk];
    return;
  }
  for (int64_t kk = 0; kk < kc; ++kk) {
    float* dst = buf + kk * NR;
    gather_runs(g, p0 + kk, runs, nruns, dst);
    std::fill(dst + nr, dst + NR, 0.0F);
    rows[kk] = dst;
  }
}

/// pack_a over im2col(X): row r is tap i0 + r at voxels p0 .. p0 + kc,
/// gathered into `buf`.
void pack_im2col_rows(const ConvInput& g, int64_t i0, int64_t p0,
                      int64_t mc, int64_t kc, float* buf,
                      const float** rows) {
  Run runs[KC];
  const int64_t nruns = row_runs(g, p0, kc, runs);
  for (int64_t r = 0; r < mc; ++r) {
    gather_runs(g, i0 + r, runs, nruns, buf + r * kc);
    rows[r] = buf + r * kc;
  }
}

}  // namespace

void im2col_gemm_3d(const float* a, const float* im, int64_t m,
                    int64_t channels, int64_t d, int64_t h, int64_t w,
                    int64_t kernel, int64_t stride, int64_t pad, int64_t od,
                    int64_t oh, int64_t ow, float* c, bool accumulate,
                    ThreadPool* pool) {
  check_conv_geometry("im2col_gemm_3d", m, channels, d, h, w, kernel, stride,
                      pad, od, oh, ow);
  const ConvInput g =
      conv_input(im, channels, d, h, w, kernel, stride, pad, oh, ow);
  const int64_t taps = channels * kernel * kernel * kernel;
  const int64_t cols = od * oh * ow;
  const auto pack_a = [&](int64_t i0, int64_t p0, int64_t mc, int64_t /*kc*/,
                          float* /*buf*/, const float** rows) {
    for (int64_t r = 0; r < mc; ++r) rows[r] = a + (i0 + r) * taps + p0;
  };
  const auto pack_b = [&](int64_t p0, int64_t j0, int64_t kc, int64_t nr,
                          float* buf, const float** rows) {
    pack_im2col(g, p0, j0, kc, nr, buf, rows);
  };
  blocked_gemm(m, cols, taps, pack_a, pack_b, c, cols, /*trans_c=*/false,
               accumulate, (pool != nullptr) ? *pool : ThreadPool::global());
}

void gemm_im2col_t_3d(const float* a, const float* im, int64_t m,
                      int64_t channels, int64_t d, int64_t h, int64_t w,
                      int64_t kernel, int64_t stride, int64_t pad, int64_t od,
                      int64_t oh, int64_t ow, float* c, bool accumulate,
                      ThreadPool* pool) {
  check_conv_geometry("gemm_im2col_t_3d", m, channels, d, h, w, kernel,
                      stride, pad, od, oh, ow);
  const ConvInput g =
      conv_input(im, channels, d, h, w, kernel, stride, pad, oh, ow);
  const int64_t taps = channels * kernel * kernel * kernel;
  const int64_t cols = od * oh * ow;
  // Computed as C^T = im2col(X) * A^T: the lowered rows are then read
  // along the voxels, as the image stores them, and the tile's lanes span
  // the m rows of A. Each C element keeps its FMA chain over the voxels
  // (a product's two factors commute exactly).
  const auto pack_a = [&](int64_t i0, int64_t p0, int64_t mc, int64_t kc,
                          float* buf, const float** rows) {
    pack_im2col_rows(g, i0, p0, mc, kc, buf, rows);
  };
  const auto pack_b = [&](int64_t p0, int64_t j0, int64_t kc, int64_t nr,
                          float* buf, const float** rows) {
    for (int64_t kk = 0; kk < kc; ++kk) {
      float* dst = buf + kk * NR;
      for (int64_t q = 0; q < nr; ++q) dst[q] = a[(j0 + q) * cols + p0 + kk];
      std::fill(dst + nr, dst + NR, 0.0F);
      rows[kk] = dst;
    }
  };
  blocked_gemm(taps, m, cols, pack_a, pack_b, c, taps, /*trans_c=*/true,
               accumulate, (pool != nullptr) ? *pool : ThreadPool::global());
}

namespace {

// Fused GEMM + col2im. Lanes are V consecutive voxels of one stride
// residue class of the image, flattened over (z, y, x), so narrow volumes
// (a 2^3 patch is 8 voxels) still fill most lanes; a work item is a tile
// of up to CT image channels over a chunk of QCHUNK such lanes. V = 16 is
// one register on AVX-512 and two elsewhere.
constexpr int64_t V = 16;
constexpr int CT = 4;
constexpr int64_t QCHUNK = 64 * V;

using vf = float __attribute__((vector_size(4 * V), aligned(4)));
using vi = int32_t __attribute__((vector_size(4 * V)));

inline vf loadv(const float* p) { return *reinterpret_cast<const vf*>(p); }

// A broadcast spelled as vf{} + x would add +0 (turning -0 into +0 and
// costing an add), and a per-lane loop is not lowered to one broadcast.
template <size_t... L>
inline vf splatv(float x, std::index_sequence<L...> /*lanes*/) {
  return vf{((void)L, x)...};
}
inline vf splatv(float x) { return splatv(x, std::make_index_sequence<V>{}); }

/// True when no lane of the mask `m` is set.
inline bool none(vi m) {
  using vl = int64_t __attribute__((vector_size(4 * V)));
  const vl q = reinterpret_cast<vl>(m);
  int64_t any = 0;
  for (int64_t l = 0; l < V / 2; ++l) any |= q[l];
  return any == 0;
}

/// The operands of one call: `im` is (channels, d, h, w) under a conv of
/// kernel k, stride s and pad p whose output `g` is (reduced, od, oh, ow);
/// `wt` is [reduced, channels * k3] with leading dimension ldw.
struct Col2imGemm {
  const float* wt;
  const float* g;
  float* im;
  int64_t reduced, channels, d, h, w, k, s, p, od, oh, ow;
  int64_t k3, ldw, cols, vol;  // k^3, channels*k^3, od*oh*ow, d*h*w
};

/// col[c] = the column value of one tap for image channel c0 + c of the
/// tile (`wtap` points at W[0][c0][tap]), where load(r) yields the tap's
/// lanes of reduced channel r: one FMA chain per KC block of the reduced
/// channels, blocks summed in order — sgemm's arithmetic exactly.
template <int NC, class Load>
inline void tap_column(const Col2imGemm& a, const float* wtap, vf (&col)[NC],
                       Load load) {
  for (int64_t b0 = 0; b0 < a.reduced; b0 += KC) {
    const int64_t b1 = std::min(a.reduced, b0 + KC);
    vf chain[NC] = {};
    for (int64_t r = b0; r < b1; ++r) {
      const vf gv = load(r);
      const float* wr = wtap + r * a.ldw;
      for (int c = 0; c < NC; ++c) chain[c] += splatv(wr[c * a.k3]) * gv;
    }
    for (int c = 0; c < NC; ++c) {
      col[c] = (b0 == 0) ? chain[c] : col[c] + chain[c];
    }
  }
}

/// One stride residue class (rz, ry, rx) of the image: the voxels
/// (rz + s*tz, ry + s*ty, rx + s*tx), a dr x hr x wr sub-lattice.
struct ResidueClass {
  int64_t rz, ry, rx, dr, hr, wr;
};

/// One image-channel tile over lanes [q0, q0 + V) of class `rc`; `at`
/// holds the (tz, ty, tx) of lane q0 and is advanced past the tile.
template <int NC>
void col2im_gemm_tile(const Col2imGemm& a, int64_t c0, const ResidueClass& rc,
                      int64_t q0, int64_t (&at)[3]) {
  const int64_t nq = rc.dr * rc.hr * rc.wr;
  // With stride 1 a full tile is V contiguous image voxels.
  const bool dense = (a.s == 1 && q0 + V <= nq);
  // Lane coordinates in the sub-lattice, by stepping x, then y, then z.
  vi tz{}, ty{}, tx{}, live{};
  int64_t imidx[V] = {};
  for (int64_t l = 0; l < V; ++l) {
    auto& [z, y, x] = at;
    tz[l] = static_cast<int32_t>(z);
    ty[l] = static_cast<int32_t>(y);
    tx[l] = static_cast<int32_t>(x);
    live[l] = (q0 + l < nq) ? -1 : 0;
    if (!dense) {
      imidx[l] = ((rc.rz + a.s * z) * a.h + rc.ry + a.s * y) * a.w + rc.rx +
                 a.s * x;
    }
    if (++x == rc.wr) {
      x = 0;
      if (++y == rc.hr) {
        y = 0;
        ++z;
      }
    }
  }
  // Strided or partial tiles go through a lane buffer: inserting and
  // extracting lanes of a register one by one is slower.
  vf acc[NC];
  float lanes[V] = {};
  for (int c = 0; c < NC; ++c) {
    float* imc = a.im + (c0 + c) * a.vol;
    if (dense) {
      acc[c] = loadv(imc + q0);
    } else {
      for (int64_t l = 0; l < V; ++l) {
        if (live[l]) lanes[l] = imc[imidx[l]];
      }
      acc[c] = loadv(lanes);
    }
  }

  // When the sub-lattice has the pitch of `g`, every lane of a tap reads
  // g at its own position plus one offset: a contiguous vector load.
  const bool pitch_matched = (rc.hr == a.oh && rc.wr == a.ow);
  const int64_t total = a.reduced * a.cols;  // floats in `g`
  const vi odv = vi{} + static_cast<int32_t>(a.od);
  const vi ohv = vi{} + static_cast<int32_t>(a.oh);
  const vi owv = vi{} + static_cast<int32_t>(a.ow);
  for (int64_t kz = 0; kz < a.k; ++kz) {
    if ((rc.rz + a.p - kz) % a.s != 0) continue;
    const int32_t offz = static_cast<int32_t>((rc.rz + a.p - kz) / a.s);
    const vi mz = (tz + offz >= 0) & (tz + offz < odv) & live;
    for (int64_t ky = 0; ky < a.k; ++ky) {
      if ((rc.ry + a.p - ky) % a.s != 0) continue;
      const int32_t offy = static_cast<int32_t>((rc.ry + a.p - ky) / a.s);
      const vi mzy = mz & (ty + offy >= 0) & (ty + offy < ohv);
      for (int64_t kx = 0; kx < a.k; ++kx) {
        if ((rc.rx + a.p - kx) % a.s != 0) continue;
        const int32_t offx = static_cast<int32_t>((rc.rx + a.p - kx) / a.s);
        const vi m = mzy & (tx + offx >= 0) & (tx + offx < owv);
        if (none(m)) continue;  // no lane of this tile takes the tap

        const float* wtap = a.wt + c0 * a.k3 + (kz * a.k + ky) * a.k + kx;
        vf col[NC] = {};
        if (pitch_matched) {
          const int64_t lo =
              q0 + (static_cast<int64_t>(offz) * a.oh + offy) * a.ow + offx;
          if (lo >= 0 && lo + V <= a.cols) {
            tap_column<NC>(a, wtap, col, [&](int64_t r) {
              return loadv(a.g + r * a.cols + lo);
            });
          } else {
            // The window pokes out of the channel plane; near the ends of
            // `g` its masked lanes may not be loaded.
            tap_column<NC>(a, wtap, col, [&](int64_t r) {
              const int64_t j0 = r * a.cols + lo;
              if (j0 >= 0 && j0 + V <= total) return loadv(a.g + j0);
              vf v{};
              for (int64_t l = 0; l < V; ++l) {
                if (m[l]) v[l] = a.g[j0 + l];
              }
              return v;
            });
          }
        } else {
          int64_t gidx[V];
          for (int64_t l = 0; l < V; ++l) {
            gidx[l] = ((static_cast<int64_t>(tz[l]) + offz) * a.oh + ty[l] +
                       offy) * a.ow + tx[l] + offx;
          }
          tap_column<NC>(a, wtap, col, [&](int64_t r) {
            vf v{};
            for (int64_t l = 0; l < V; ++l) {
              if (m[l]) v[l] = a.g[r * a.cols + gidx[l]];
            }
            return v;
          });
        }
        for (int c = 0; c < NC; ++c) acc[c] = m ? acc[c] + col[c] : acc[c];
      }
    }
  }

  for (int c = 0; c < NC; ++c) {
    float* imc = a.im + (c0 + c) * a.vol;
    if (dense) {
      *reinterpret_cast<vf*>(imc + q0) = acc[c];
    } else {
      *reinterpret_cast<vf*>(lanes) = acc[c];
      for (int64_t l = 0; l < V; ++l) {
        if (live[l]) imc[imidx[l]] = lanes[l];
      }
    }
  }
}

}  // namespace

void col2im_gemm_3d(const float* wt, const float* g, int64_t reduced,
                    int64_t channels, int64_t d, int64_t h, int64_t w,
                    int64_t kernel, int64_t stride, int64_t pad, int64_t od,
                    int64_t oh, int64_t ow, float* im, ThreadPool* pool) {
  check_conv_geometry("col2im_gemm_3d", reduced, channels, d, h, w, kernel,
                      stride, pad, od, oh, ow);
  const int64_t k3 = kernel * kernel * kernel;
  const Col2imGemm a{.wt = wt, .g = g, .im = im, .reduced = reduced,
                     .channels = channels, .d = d, .h = h, .w = w,
                     .k = kernel, .s = stride, .p = pad, .od = od, .oh = oh,
                     .ow = ow, .k3 = k3, .ldw = channels * k3,
                     .cols = od * oh * ow, .vol = d * h * w};
  const int64_t s = stride;
  const int64_t tiles = (channels + CT - 1) / CT;
  const int64_t classes = s * s * s;
  const int64_t nq_max =
      ((d + s - 1) / s) * ((h + s - 1) / s) * ((w + s - 1) / s);
  const int64_t chunks = (nq_max + QCHUNK - 1) / QCHUNK;
  ThreadPool& tp = (pool != nullptr) ? *pool : ThreadPool::global();
  // Items write disjoint image voxels and each voxel's arithmetic is fixed,
  // so the result does not depend on how items are split over threads.
  parallel_for(tp, 0, tiles * classes * chunks, [&](int64_t lo, int64_t hi) {
    for (int64_t item = lo; item < hi; ++item) {
      const int64_t chunk = item % chunks;
      const int64_t cls = item / chunks % classes;
      const int64_t c0 = item / chunks / classes * CT;
      const int64_t rz = cls / (s * s), ry = cls / s % s, rx = cls % s;
      const ResidueClass rc{rz, ry, rx, (d - rz + s - 1) / s,
                            (h - ry + s - 1) / s, (w - rx + s - 1) / s};
      const int64_t nq = rc.dr * rc.hr * rc.wr;
      const int64_t q_begin = chunk * QCHUNK;
      if (q_begin >= nq) continue;  // a short (or empty) class
      const int64_t q_end = std::min(nq, q_begin + QCHUNK);
      int64_t at[3] = {q_begin / (rc.hr * rc.wr), q_begin / rc.wr % rc.hr,
                       q_begin % rc.wr};
      for (int64_t q0 = q_begin; q0 < q_end; q0 += V) {
        switch (std::min<int64_t>(CT, channels - c0)) {
          case 4: col2im_gemm_tile<4>(a, c0, rc, q0, at); break;
          case 3: col2im_gemm_tile<3>(a, c0, rc, q0, at); break;
          case 2: col2im_gemm_tile<2>(a, c0, rc, q0, at); break;
          default: col2im_gemm_tile<1>(a, c0, rc, q0, at);
        }
      }
    }
  });
}

}  // namespace dmis
