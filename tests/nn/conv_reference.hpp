// Reference convolution kernels: the direct loop nests the production
// implicit-GEMM layers are differentially tested against.
//
// Simple and obviously correct, not fast: forward is parallel over
// (batch x output channel), backward is split into race-free passes
// (parameter gradients parallel over a channel, input gradients
// parallel over the batch). Weight layouts match the layers:
// Conv3d [Cout, Cin, K, K, K], ConvTranspose3d [Cin, Cout, K, K, K];
// K is read from the weight shape.
#pragma once

#include "tensor/ndarray.hpp"

namespace dmis::nn::testing {

struct ConvGeometry {
  int stride = 1;
  int padding = 0;  ///< Conv3d only; transposed convolutions use none.
};

/// Input, weight and bias gradients of one backward pass (freshly
/// zeroed, so they equal what a layer accumulates from zeroed grads).
struct ConvGrads {
  NDArray input;
  NDArray weight;
  NDArray bias;
};

NDArray conv3d_forward_reference(const NDArray& input, const NDArray& weight,
                                 const NDArray& bias, ConvGeometry geom);

ConvGrads conv3d_backward_reference(const NDArray& input,
                                    const NDArray& weight,
                                    const NDArray& grad_output,
                                    ConvGeometry geom);

NDArray conv_transpose3d_forward_reference(const NDArray& input,
                                           const NDArray& weight,
                                           const NDArray& bias,
                                           ConvGeometry geom);

ConvGrads conv_transpose3d_backward_reference(const NDArray& input,
                                              const NDArray& weight,
                                              const NDArray& grad_output,
                                              ConvGeometry geom);

}  // namespace dmis::nn::testing
