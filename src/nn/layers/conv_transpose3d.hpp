// 3-D transposed convolution (a.k.a. up-convolution).
//
// The paper's synthesis path upsamples with 2x2x2 transposed convolutions
// of stride 2: every input voxel scatters a KxKxK stamp into the output.
// Weight layout is [Cin, Cout, K, K, K] (the adjoint of Conv3d's layout).
// Output spatial extent is (in - 1) * stride + kernel.
//
// The transposed conv is the adjoint of a conv over its own output, so
// forward is the fused GEMM + col2im kernel and backward the two
// implicit-GEMM kernels over the output gradient's im2col lowering
// (tensor/gemm.hpp); no pass stores a column matrix. The direct
// scatter/gather reference these passes are differentially tested
// against lives in tests/nn/conv_reference.hpp.
#pragma once

#include "nn/module.hpp"
#include "tensor/rng.hpp"

namespace dmis::nn {

class ConvTranspose3d final : public Module {
 public:
  ConvTranspose3d(int64_t in_channels, int64_t out_channels, int kernel,
                  int stride, Rng& rng);

  std::string type() const override { return "ConvTranspose3d"; }
  NDArray forward(std::span<const NDArray* const> inputs,
                  bool training) override;
  std::vector<NDArray> backward(const NDArray& grad_output) override;
  std::vector<Param> params() override;

  int64_t out_extent(int64_t in_extent) const {
    return (in_extent - 1) * stride_ + kernel_;
  }

 private:
  int64_t cin_;
  int64_t cout_;
  int kernel_;
  int stride_;

  NDArray weight_;       // [Cin, Cout, K, K, K]
  NDArray bias_;         // [Cout]
  NDArray grad_weight_;
  NDArray grad_bias_;
  NDArray input_;  // activation of the last training forward, for backward
};

}  // namespace dmis::nn
