// im2col lowering for 3-D convolution.
//
// im2col_3d unfolds a channels-first volume (C, D, H, W) into a
// [C*K^3, OD*OH*OW] row-major matrix: row (c, kz, ky, kx) holds, for every
// output position (od, oh, ow), the input voxel that kernel tap touches
// (zero where the tap falls in the padding). Convolution forward and
// weight gradient then become one SGEMM against the [Cout, Cin*K^3]
// weight matrix. The adjoint direction (Conv3d input gradient,
// ConvTranspose3d forward) does not materialize a column matrix: the
// fused col2im_gemm_3d in gemm.hpp accumulates straight into the image.
//
// Row ordering (c slowest, then kz, ky, kx) matches the flattened weight
// layouts of Conv3d ([Cout, Cin, K, K, K]) and ConvTranspose3d
// ([Cin, Cout, K, K, K]).
#pragma once

#include <cstdint>

namespace dmis {

/// Unfolds `im` (channels x d x h x w) into `col` ([channels*kernel^3] x
/// [od*oh*ow]); out-of-image taps produce zeros. `od/oh/ow` must equal
/// (extent + 2*pad - kernel) / stride + 1 per axis.
void im2col_3d(const float* im, int64_t channels, int64_t d, int64_t h,
               int64_t w, int64_t kernel, int64_t stride, int64_t pad,
               int64_t od, int64_t oh, int64_t ow, float* col);

}  // namespace dmis
