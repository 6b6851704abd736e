// SGEMM, the single-precision matrix multiply, and the three convolution
// products built on its loop nest, none of which stores a lowered matrix:
//   im2col_gemm_3d    C = A * im2col(X)     conv forward, transposed-conv
//                                           input gradient;
//   gemm_im2col_t_3d  C = A * im2col(X)^T   conv and transposed-conv
//                                           weight gradients;
//   col2im_gemm_3d    X += col2im(W^T * G)  conv input gradient,
//                                           transposed-conv forward.
// im2col(X) is the [channels*k^3, od*oh*ow] matrix of a conv's input: row
// (c, kz, ky, kx) holds, for every output voxel (z, y, x), the input
// voxel that tap reads, or 0 where it reads padding. Its row order
// matches the flattened weights of Conv3d ([Cout, Cin, K, K, K]) and
// ConvTranspose3d ([Cin, Cout, K, K, K]).
//
// C = op(A) * op(B) [+ C], row-major, with op(X) = X or X^T per the trans
// flags. The implementation is a cache-blocked, packed GEMM in the BLIS
// style: A is repacked into MR-row panels and B into KC x NR micro-panels
// (zero-padded to the register-tile size), and a fixed 6x16 microkernel
// accumulates one output tile per call, which the compiler vectorizes.
// The implicit-GEMM kernels gather their B micro-panels straight from the
// image, so they multiply the numbers sgemm would read from a stored
// im2col matrix, in the same order, and equal it bit for bit. Work is
// split over the thread pool by row blocks and column chunks of C; every
// element's accumulation order is fixed by the (serial) k-blocking, so
// results are bitwise identical for any thread count — asserted in
// tests/tensor/gemm_test.cpp and tests/tensor/col2im_gemm_test.cpp.
//
// Packing scratch lives in thread_local or stack buffers, so
// steady-state calls perform no heap allocation.
//
// All four kernels are compiled with -march=native
// (src/tensor/CMakeLists.txt), which enables FMA contraction of
// `acc += a * b`. Bitwise results are therefore reproducible within one
// build, not across ISAs with and without FMA.
#pragma once

#include <cstdint>

namespace dmis {

class ThreadPool;

/// C[m,n] = op(A) * op(B), or += when `accumulate` is true.
///
/// Row-major with explicit leading dimensions:
///   op(A) is m x k; A is stored m x k (lda >= k), or k x m (lda >= m)
///   when trans_a.
///   op(B) is k x n; B is stored k x n (ldb >= n), or n x k (ldb >= k)
///   when trans_b.
///   C is stored m x n with ldc >= n.
/// `pool` selects the worker pool (nullptr = the process-global pool).
void sgemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
           const float* a, int64_t lda, const float* b, int64_t ldb, float* c,
           int64_t ldc, bool accumulate = false, ThreadPool* pool = nullptr);

/// C (+)= A * im2col(X), without forming im2col(X).
///
/// `a` is [m, channels*kernel^3] (row-major, ld = channels*kernel^3); `im`
/// is (channels, d, h, w) and od/oh/ow must equal
/// (extent + 2*pad - kernel) / stride + 1 per axis; `c` is [m, od*oh*ow].
/// Overwrites C, or adds to it when `accumulate`. The result equals, bit
/// for bit, sgemm(false, false, ...) on the stored im2col matrix.
void im2col_gemm_3d(const float* a, const float* im, int64_t m,
                    int64_t channels, int64_t d, int64_t h, int64_t w,
                    int64_t kernel, int64_t stride, int64_t pad, int64_t od,
                    int64_t oh, int64_t ow, float* c, bool accumulate,
                    ThreadPool* pool = nullptr);

/// C (+)= A * im2col(X)^T, without forming im2col(X).
///
/// `a` is [m, od*oh*ow] and `c` is [m, channels*kernel^3]; `im` and the
/// geometry are as for im2col_gemm_3d. The result equals, bit for bit,
/// sgemm(false, true, ...) against the stored im2col matrix.
void gemm_im2col_t_3d(const float* a, const float* im, int64_t m,
                      int64_t channels, int64_t d, int64_t h, int64_t w,
                      int64_t kernel, int64_t stride, int64_t pad, int64_t od,
                      int64_t oh, int64_t ow, float* c, bool accumulate,
                      ThreadPool* pool = nullptr);

/// im += col2im(W^T * G), without forming the column matrix W^T * G.
///
/// `wt` is the [reduced, channels*kernel^3] matrix that sgemm would take
/// transposed (row-major, ld = channels*kernel^3) and `g` is the
/// [reduced, od*oh*ow] operand; `im` is (channels, d, h, w) with the
/// geometry of im2col_gemm_3d. The result equals, bit for bit, sgemm(true,
/// false, ...) into a column buffer followed by the col2im scatter-add:
/// per image element, each in-range tap (in kz, ky, kx order) adds one
/// FMA chain over the reduced channels, summed per KC block as sgemm does.
void col2im_gemm_3d(const float* wt, const float* g, int64_t reduced,
                    int64_t channels, int64_t d, int64_t h, int64_t w,
                    int64_t kernel, int64_t stride, int64_t pad, int64_t od,
                    int64_t oh, int64_t ow, float* im,
                    ThreadPool* pool = nullptr);

}  // namespace dmis
