#include "nn/layers/activations.hpp"

#include <cmath>

#include "common/check.hpp"

namespace dmis::nn {

NDArray ReLU::forward(std::span<const NDArray* const> inputs,
                      bool /*training*/) {
  DMIS_CHECK(inputs.size() == 1, "ReLU expects 1 input");
  const NDArray& in = *inputs[0];
  NDArray out(in.shape());
  for (int64_t i = 0; i < in.numel(); ++i) {
    out[i] = in[i] > 0.0F ? in[i] : 0.0F;
  }
  return out;
}

std::vector<NDArray> ReLU::backward(std::span<const NDArray* const> /*inputs*/,
                                    const NDArray& output,
                                    const NDArray& grad_output) {
  DMIS_CHECK(grad_output.shape() == output.shape(),
             "ReLU backward: grad shape mismatch");
  // out > 0 exactly where in > 0 (NaN and -0 map to +0), so this is the
  // input mask.
  NDArray grad_input(grad_output.shape());
  for (int64_t i = 0; i < grad_output.numel(); ++i) {
    grad_input[i] = grad_output[i] * (output[i] > 0.0F ? 1.0F : 0.0F);
  }
  std::vector<NDArray> grads;
  grads.push_back(std::move(grad_input));
  return grads;
}

NDArray Sigmoid::forward(std::span<const NDArray* const> inputs,
                         bool /*training*/) {
  DMIS_CHECK(inputs.size() == 1, "Sigmoid expects 1 input");
  const NDArray& in = *inputs[0];
  NDArray out(in.shape());
  for (int64_t i = 0; i < in.numel(); ++i) {
    // Branch on the sign for numerical stability at large |x|.
    const float x = in[i];
    if (x >= 0.0F) {
      const float e = std::exp(-x);
      out[i] = 1.0F / (1.0F + e);
    } else {
      const float e = std::exp(x);
      out[i] = e / (1.0F + e);
    }
  }
  return out;
}

std::vector<NDArray> Sigmoid::backward(
    std::span<const NDArray* const> /*inputs*/, const NDArray& output,
    const NDArray& grad_output) {
  DMIS_CHECK(grad_output.shape() == output.shape(),
             "Sigmoid backward: grad shape mismatch");
  NDArray grad_input(grad_output.shape());
  for (int64_t i = 0; i < grad_output.numel(); ++i) {
    const float s = output[i];
    grad_input[i] = grad_output[i] * s * (1.0F - s);
  }
  std::vector<NDArray> grads;
  grads.push_back(std::move(grad_input));
  return grads;
}

}  // namespace dmis::nn
