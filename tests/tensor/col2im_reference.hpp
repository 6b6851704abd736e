// col2im_3d, the scatter-add adjoint of im2col_3d, and the unfused
// GEMM + col2im pair that col2im_gemm_3d replaced in the layers. Both are
// test oracles: col2im_gemm_3d must match the pair bit for bit.
#pragma once

#include <cstdint>

namespace dmis::testing {

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

}  // namespace dmis::testing
