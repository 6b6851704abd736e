// The stored conv lowerings the layers no longer build, kept as test
// oracles: im2col_3d and its scatter-add adjoint col2im_3d, the unfused
// SGEMM compositions each tensor/gemm.hpp conv kernel must match bit for
// bit, and a scalar model of the arithmetic every tensor/gemm.hpp GEMM
// is specified to perform, which shares no code with them.
#pragma once

#include <cstdint>
#include <vector>

namespace dmis::testing {

/// Unfolds `im` (channels x d x h x w) into `col` ([channels*kernel^3] x
/// [od*oh*ow]): row (c, kz, ky, kx) holds, for every output position,
/// the input voxel that tap reads, or 0 in the padding. `od/oh/ow` must
/// equal (extent + 2*pad - kernel) / stride + 1 per axis.
void im2col_3d(const float* im, int64_t channels, int64_t d, int64_t h,
               int64_t w, int64_t kernel, int64_t stride, int64_t pad,
               int64_t od, int64_t oh, int64_t ow, float* col);

/// Accumulates (+=) every entry of `col` ([channels*kernel^3] x
/// [od*oh*ow]) back into its source voxel of `im` (channels x d x h x w),
/// walking rows (c, kz, ky, kx) in order; entries over the padding are
/// dropped.
void col2im_3d(const float* col, int64_t channels, int64_t d, int64_t h,
               int64_t w, int64_t kernel, int64_t stride, int64_t pad,
               int64_t od, int64_t oh, int64_t ow, float* im);

/// im += col2im_3d(sgemm(W^T * G)) through a materialized column matrix:
/// the composition col2im_gemm_3d fuses, with the same arguments.
void col2im_gemm_oracle(const float* wt, const float* g, int64_t reduced,
                        int64_t channels, int64_t d, int64_t h, int64_t w,
                        int64_t kernel, int64_t stride, int64_t pad,
                        int64_t od, int64_t oh, int64_t ow, float* im);

/// c (+)= a * im2col_3d(im) through a materialized column matrix and
/// sgemm: the composition im2col_gemm_3d replaces, with its arguments.
void im2col_gemm_oracle(const float* a, const float* im, int64_t m,
                        int64_t channels, int64_t d, int64_t h, int64_t w,
                        int64_t kernel, int64_t stride, int64_t pad,
                        int64_t od, int64_t oh, int64_t ow, float* c,
                        bool accumulate);

/// c (+)= a * im2col_3d(im)^T through a materialized column matrix and
/// sgemm: the composition gemm_im2col_t_3d replaces, with its arguments.
void gemm_im2col_t_oracle(const float* a, const float* im, int64_t m,
                          int64_t channels, int64_t d, int64_t h, int64_t w,
                          int64_t kernel, int64_t stride, int64_t pad,
                          int64_t od, int64_t oh, int64_t ow, float* c,
                          bool accumulate);

/// c (+)= op(a) * op(b) ([m, n], leading dimensions lda, ldb, ldc) the
/// way every GEMM in tensor/gemm.hpp is specified to compute it, with no
/// blocking, packing or threads: per element of c, one multiply-add chain
/// from +0 over each 256-long block of the reduction in order — fused
/// into one rounding per step when `fused`, else product then sum — and
/// the chains of successive blocks stored (the first, unless
/// `accumulate`) or added to c in block order.
void kc_chain_gemm(bool fused, bool trans_a, bool trans_b, int64_t m,
                   int64_t n, int64_t k, const float* a, int64_t lda,
                   const float* b, int64_t ldb, float* c, int64_t ldc,
                   bool accumulate);

/// True when `got` equals kc_chain_gemm's result over the initial C `c0`
/// (both dense [m, n]) bit for bit, fused or unfused: which of the two
/// the kernels compute depends on whether their ISA has FMA.
bool matches_kc_chain(const std::vector<float>& got, std::vector<float> c0,
                      bool trans_a, bool trans_b, int64_t m, int64_t n,
                      int64_t k, const float* a, int64_t lda, const float* b,
                      int64_t ldb, bool accumulate);

}  // namespace dmis::testing
