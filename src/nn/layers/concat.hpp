// Channel-axis concatenation — the U-Net skip connection join.
//
// Takes any number of rank-5 inputs agreeing on every dimension except
// channels; forward copies slabs, backward slices the gradient back.
#pragma once

#include <vector>

#include "nn/module.hpp"

namespace dmis::nn {

class Concat final : public Module {
 public:
  explicit Concat(int num_inputs = 2) : num_inputs_(num_inputs) {}

  std::string type() const override { return "Concat"; }
  int arity() const override { return num_inputs_; }
  NDArray forward(std::span<const NDArray* const> inputs,
                  bool training) override;
  std::vector<NDArray> backward(std::span<const NDArray* const> inputs,
                               const NDArray& output,
                               const NDArray& grad_output) override;

 private:
  int num_inputs_;
};

}  // namespace dmis::nn
