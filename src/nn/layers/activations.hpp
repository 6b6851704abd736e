// Pointwise activations: ReLU (analysis/synthesis paths) and Sigmoid
// (the 1x1x1 head of the paper's model outputs per-voxel probabilities).
// Both differentiate from their own output: ReLU passes the gradient
// where the output is positive, Sigmoid scales it by s * (1 - s).
#pragma once

#include "nn/module.hpp"

namespace dmis::nn {

class ReLU final : public Module {
 public:
  std::string type() const override { return "ReLU"; }
  NDArray forward(std::span<const NDArray* const> inputs,
                  bool training) override;
  std::vector<NDArray> backward(std::span<const NDArray* const> inputs,
                               const NDArray& output,
                               const NDArray& grad_output) override;
};

class Sigmoid final : public Module {
 public:
  std::string type() const override { return "Sigmoid"; }
  NDArray forward(std::span<const NDArray* const> inputs,
                  bool training) override;
  std::vector<NDArray> backward(std::span<const NDArray* const> inputs,
                               const NDArray& output,
                               const NDArray& grad_output) override;
};

}  // namespace dmis::nn
