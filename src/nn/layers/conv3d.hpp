// 3-D convolution (channels-first).
//
// The paper's U-Net uses 3x3x3 convolutions with "same" padding and 1x1x1
// head convolutions; this layer is generic over cubic kernel size, stride
// and padding. Weight layout is [Cout, Cin, K, K, K].
//
// Forward and weight-gradient passes lower to im2col + blocked SGEMM;
// the column buffer comes from the shared Workspace, so steady-state
// steps allocate nothing inside the kernel. The input gradient uses the
// fused GEMM + col2im kernel, which needs no column buffer. 1x1x1/stride-1
// convolutions skip im2col and feed SGEMM directly. The direct loop-nest
// reference these passes are differentially tested against lives in
// tests/nn/conv_reference.hpp.
#pragma once

#include <memory>

#include "nn/module.hpp"
#include "nn/workspace.hpp"
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
  void set_workspace(std::shared_ptr<Workspace> workspace) override {
    workspace_ = std::move(workspace);
  }

  int64_t in_channels() const { return cin_; }
  int64_t out_channels() const { return cout_; }

  /// Output spatial extent for one dimension given this layer's geometry.
  int64_t out_extent(int64_t in_extent) const {
    return (in_extent + 2 * padding_ - kernel_) / stride_ + 1;
  }

  NDArray& weight() { return weight_; }
  NDArray& bias() { return bias_; }

 private:
  Workspace& workspace();

  int64_t cin_;
  int64_t cout_;
  int kernel_;
  int stride_;
  int padding_;

  NDArray weight_;       // [Cout, Cin, K, K, K]
  NDArray bias_;         // [Cout]
  NDArray grad_weight_;  // same shape as weight_
  NDArray grad_bias_;    // same shape as bias_

  NDArray input_;        // retained activation for backward
  std::shared_ptr<Workspace> workspace_;  // lazily created if not shared
};

}  // namespace dmis::nn
