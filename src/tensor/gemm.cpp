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

// Cache blocking: an MC x KC panel of A (L2-resident) meets a KC x NC
// panel of B streamed through NR-wide micro-panels.
constexpr int64_t MC = 96;
constexpr int64_t KC = 256;
constexpr int64_t NC = 2048;

static_assert(MC % MR == 0 && NC % NR == 0);

inline float elem(const float* mat, int64_t ld, bool trans, int64_t row,
                  int64_t col) {
  return trans ? mat[col * ld + row] : mat[row * ld + col];
}

/// Packs an mc x kc block of op(A) (origin i0, p0) into MR-row panels,
/// panel layout [kk][r], zero-padding the ragged last panel.
void pack_a(const float* a, int64_t lda, bool trans, int64_t i0, int64_t p0,
            int64_t mc, int64_t kc, float* ap) {
  for (int64_t i = 0; i < mc; i += MR) {
    const int64_t mr = std::min(MR, mc - i);
    for (int64_t kk = 0; kk < kc; ++kk) {
      float* dst = ap + kk * MR;
      for (int64_t r = 0; r < mr; ++r) {
        dst[r] = elem(a, lda, trans, i0 + i + r, p0 + kk);
      }
      for (int64_t r = mr; r < MR; ++r) dst[r] = 0.0F;
    }
    ap += kc * MR;
  }
}

/// Packs a kc x nc block of op(B) (origin p0, j0) into NR-column panels,
/// panel layout [kk][c], zero-padding the ragged last panel.
void pack_b(const float* b, int64_t ldb, bool trans, int64_t p0, int64_t j0,
            int64_t kc, int64_t nc, float* bp) {
  for (int64_t j = 0; j < nc; j += NR) {
    const int64_t nr = std::min(NR, nc - j);
    if (!trans && nr == NR) {
      const float* src = b + p0 * ldb + j0 + j;
      for (int64_t kk = 0; kk < kc; ++kk) {
        std::memcpy(bp + kk * NR, src + kk * ldb, NR * sizeof(float));
      }
    } else {
      for (int64_t kk = 0; kk < kc; ++kk) {
        float* dst = bp + kk * NR;
        for (int64_t c = 0; c < nr; ++c) {
          dst[c] = elem(b, ldb, trans, p0 + kk, j0 + j + c);
        }
        for (int64_t c = nr; c < NR; ++c) dst[c] = 0.0F;
      }
    }
    bp += kc * NR;
  }
}

// 8-wide float vector (lowered to whatever the target ISA offers);
// aligned(4) keeps loads/stores legal on unaligned panel addresses.
using v8sf = float __attribute__((vector_size(32), aligned(4)));

inline v8sf splat(float x) { return v8sf{x, x, x, x, x, x, x, x}; }

/// acc[MR][NR] = Apanel(kc x MR) * Bpanel(kc x NR).
///
/// The 6x16 tile lives in 12 named vector accumulators so the compiler
/// register-allocates it across the k loop — the array-indexed form
/// round-trips the tile through the stack every iteration and runs ~7x
/// slower.
void micro_kernel(int64_t kc, const float* ap, const float* bp, float* acc) {
  v8sf c00{}, c01{}, c10{}, c11{}, c20{}, c21{};
  v8sf c30{}, c31{}, c40{}, c41{}, c50{}, c51{};
  for (int64_t kk = 0; kk < kc; ++kk) {
    const float* ak = ap + kk * MR;
    const v8sf b0 = *reinterpret_cast<const v8sf*>(bp + kk * NR);
    const v8sf b1 = *reinterpret_cast<const v8sf*>(bp + kk * NR + 8);
    v8sf a;
    a = splat(ak[0]); c00 += a * b0; c01 += a * b1;
    a = splat(ak[1]); c10 += a * b0; c11 += a * b1;
    a = splat(ak[2]); c20 += a * b0; c21 += a * b1;
    a = splat(ak[3]); c30 += a * b0; c31 += a * b1;
    a = splat(ak[4]); c40 += a * b0; c41 += a * b1;
    a = splat(ak[5]); c50 += a * b0; c51 += a * b1;
  }
  v8sf* out = reinterpret_cast<v8sf*>(acc);
  out[0] = c00; out[1] = c01; out[2] = c10; out[3] = c11;
  out[4] = c20; out[5] = c21; out[6] = c30; out[7] = c31;
  out[8] = c40; out[9] = c41; out[10] = c50; out[11] = c51;
}

/// Writes (or accumulates) the valid mr x nr corner of the tile into C.
void store_tile(const float* acc, float* c, int64_t ldc, int64_t mr,
                int64_t nr, bool overwrite) {
  for (int64_t r = 0; r < mr; ++r) {
    float* crow = c + r * ldc;
    const float* arow = acc + r * NR;
    if (overwrite) {
      for (int64_t j = 0; j < nr; ++j) crow[j] = arow[j];
    } else {
      for (int64_t j = 0; j < nr; ++j) crow[j] += arow[j];
    }
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
  ThreadPool& tp = (pool != nullptr) ? *pool : ThreadPool::global();

  // The B panel is packed once per (j0, p0) block by the calling thread
  // and read (only) inside the parallel region.
  thread_local std::vector<float> bpack;

  for (int64_t j0 = 0; j0 < n; j0 += NC) {
    const int64_t nc = std::min(NC, n - j0);
    const int64_t nc_pad = (nc + NR - 1) / NR * NR;
    for (int64_t p0 = 0; p0 < k; p0 += KC) {
      const int64_t kc = std::min(KC, k - p0);
      if (static_cast<int64_t>(bpack.size()) < nc_pad * kc) {
        bpack.resize(static_cast<size_t>(nc_pad * kc));
      }
      pack_b(b, ldb, trans_b, p0, j0, kc, nc, bpack.data());
      const float* bp = bpack.data();

      // First k-block overwrites C unless accumulating; later blocks add.
      const bool overwrite = (p0 == 0) && !accumulate;
      const int64_t num_mblocks = (m + MC - 1) / MC;
      parallel_for(tp, 0, num_mblocks, [&](int64_t lo, int64_t hi) {
        thread_local std::vector<float> apack;
        for (int64_t blk = lo; blk < hi; ++blk) {
          const int64_t i0 = blk * MC;
          const int64_t mc = std::min(MC, m - i0);
          const int64_t mc_pad = (mc + MR - 1) / MR * MR;
          if (static_cast<int64_t>(apack.size()) < mc_pad * kc) {
            apack.resize(static_cast<size_t>(mc_pad * kc));
          }
          pack_a(a, lda, trans_a, i0, p0, mc, kc, apack.data());
          float acc[MR * NR];
          for (int64_t jr = 0; jr < nc; jr += NR) {
            const float* bpanel = bp + (jr / NR) * kc * NR;
            const int64_t nr = std::min(NR, nc - jr);
            for (int64_t ir = 0; ir < mc; ir += MR) {
              const int64_t mr = std::min(MR, mc - ir);
              micro_kernel(kc, apack.data() + (ir / MR) * kc * MR, bpanel,
                           acc);
              store_tile(acc, c + (i0 + ir) * ldc + j0 + jr, ldc, mr, nr,
                         overwrite);
            }
          }
        }
      });
    }
  }
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
  DMIS_CHECK(reduced > 0 && channels > 0 && d > 0 && h > 0 && w > 0,
             "col2im_gemm_3d: bad sizes reduced=" << reduced << " image "
                 << channels << "x" << d << "x" << h << "x" << w);
  DMIS_CHECK(kernel >= 1 && stride >= 1 && pad >= 0,
             "col2im_gemm_3d: bad geometry k=" << kernel << " s=" << stride
                                               << " p=" << pad);
  DMIS_CHECK(od == (d + 2 * pad - kernel) / stride + 1 &&
                 oh == (h + 2 * pad - kernel) / stride + 1 &&
                 ow == (w + 2 * pad - kernel) / stride + 1 && od > 0 &&
                 oh > 0 && ow > 0,
             "col2im_gemm_3d: extents " << od << "x" << oh << "x" << ow
                                        << " inconsistent with geometry");
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
