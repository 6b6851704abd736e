// 3-D convolution (channels-first).
//
// The paper's U-Net uses 3x3x3 convolutions with "same" padding and 1x1x1
// head convolutions; this layer is generic over cubic kernel size, stride
// and padding. Weight layout is [Cout, Cin, K, K, K].
//
// Every pass is a GEMM against the conv's im2col lowering, and none
// stores it: forward is im2col_gemm_3d, the weight gradient
// gemm_im2col_t_3d and the input gradient col2im_gemm_3d (tensor/gemm.hpp),
// which gather or scatter the taps inside the GEMM. 1x1x1/stride-1
// convolutions (the U-Net head) need no lowering and call SGEMM on the
// activation. The direct loop-nest reference these passes are
// differentially tested against lives in tests/nn/conv_reference.hpp.
#pragma once

#include "nn/module.hpp"
#include "tensor/rng.hpp"

namespace dmis::nn {

class Conv3d final : public Module {
 public:
  /// Creates a conv layer; weights are truncated-normal initialized with
  /// stddev sqrt(2 / fan_in) (He scaling, clipped at 2 sigma), bias zero.
  Conv3d(int64_t in_channels, int64_t out_channels, int kernel, int stride,
         int padding, Rng& rng);

  std::string type() const override { return "Conv3d"; }
  NDArray forward(std::span<const NDArray* const> inputs,
                  bool training) override;
  std::vector<NDArray> backward(const NDArray& grad_output) override;
  std::vector<Param> params() override;

  int64_t in_channels() const { return cin_; }
  int64_t out_channels() const { return cout_; }

  /// Output spatial extent for one dimension given this layer's geometry.
  int64_t out_extent(int64_t in_extent) const {
    return (in_extent + 2 * padding_ - kernel_) / stride_ + 1;
  }

  NDArray& weight() { return weight_; }
  NDArray& bias() { return bias_; }

 private:
  /// 1x1x1 stride-1 (the U-Net head): the activation is its own lowering.
  bool identity_cols() const {
    return kernel_ == 1 && stride_ == 1 && padding_ == 0;
  }

  int64_t cin_;
  int64_t cout_;
  int kernel_;
  int stride_;
  int padding_;

  NDArray weight_;       // [Cout, Cin, K, K, K]
  NDArray bias_;         // [Cout]
  NDArray grad_weight_;  // same shape as weight_
  NDArray grad_bias_;    // same shape as bias_

  NDArray input_;  // activation of the last training forward, for backward
};

}  // namespace dmis::nn
