// Batch normalization over the channel axis.
//
// The paper places batch normalization before every ReLU. Statistics are
// computed per channel over (N, D, H, W). Training mode normalizes with
// batch statistics and updates exponential running averages; evaluation
// mode normalizes with the running averages. gamma/beta are learnable.
// Backward recomputes the normalized input x_hat = (x - mean) * inv_std
// from the forward's input and the per-channel statistics it kept, in the
// same float arithmetic as forward, so no x_hat tensor is stored.
#pragma once

#include <vector>

#include "nn/module.hpp"

namespace dmis::nn {

class BatchNorm final : public Module {
 public:
  /// `momentum` is the fraction of the old running statistic retained per
  /// batch (TensorFlow convention: new = momentum*old + (1-momentum)*batch).
  explicit BatchNorm(int64_t channels, float momentum = 0.9F,
                     float eps = 1e-5F);

  std::string type() const override { return "BatchNorm"; }
  NDArray forward(std::span<const NDArray* const> inputs,
                  bool training) override;
  std::vector<NDArray> backward(std::span<const NDArray* const> inputs,
                               const NDArray& output,
                               const NDArray& grad_output) override;
  std::vector<Param> params() override;
  std::vector<Param> state() override;

  const NDArray& running_mean() const { return running_mean_; }
  const NDArray& running_var() const { return running_var_; }

 private:
  int64_t channels_;
  float momentum_;
  float eps_;

  NDArray gamma_;         // [C]
  NDArray beta_;          // [C]
  NDArray grad_gamma_;
  NDArray grad_beta_;
  NDArray running_mean_;  // [C] (non-trainable state)
  NDArray running_var_;   // [C]

  // Per-channel statistics of the last forward, for backward.
  std::vector<float> mean_;     // batch or running mean
  std::vector<float> inv_std_;  // 1/sqrt(var + eps)
  bool trained_forward_ = false;
};

}  // namespace dmis::nn
