// 3-D max pooling (2x2x2, stride 2 in the paper's analysis path).
//
// Forward records the argmax flat index per pooled window; backward
// scatters the incoming gradient back to those positions only.
#pragma once

#include <vector>

#include "nn/module.hpp"
#include "tensor/thread_pool.hpp"

namespace dmis::nn {

class MaxPool3d final : public Module {
 public:
  MaxPool3d(int kernel, int stride);

  std::string type() const override { return "MaxPool3d"; }
  NDArray forward(std::span<const NDArray* const> inputs,
                  bool training) override;
  std::vector<NDArray> backward(std::span<const NDArray* const> inputs,
                               const NDArray& output,
                               const NDArray& grad_output) override;

  int64_t out_extent(int64_t in_extent) const {
    return (in_extent - kernel_) / stride_ + 1;
  }

 private:
  int kernel_;
  int stride_;
  std::vector<int64_t> argmax_;  // flat input index per output element
};

}  // namespace dmis::nn
