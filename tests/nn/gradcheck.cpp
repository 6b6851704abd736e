#include "gradcheck.hpp"

#include <cmath>

namespace dmis::nn::testing {
namespace {

std::vector<const NDArray*> pointers(const std::vector<NDArray>& inputs) {
  std::vector<const NDArray*> ptrs;
  ptrs.reserve(inputs.size());
  for (const auto& t : inputs) ptrs.push_back(&t);
  return ptrs;
}

NDArray run_forward(Module& module, const std::vector<NDArray>& inputs,
                    bool training) {
  const std::vector<const NDArray*> ptrs = pointers(inputs);
  return module.forward(
      std::span<const NDArray* const>(ptrs.data(), ptrs.size()), training);
}

double probe(Module& module, const std::vector<NDArray>& inputs,
             const NDArray& coeffs, bool training) {
  const NDArray out = run_forward(module, inputs, training);
  EXPECT_EQ(out.shape(), coeffs.shape());
  double acc = 0.0;
  for (int64_t i = 0; i < out.numel(); ++i) {
    acc += static_cast<double>(out[i]) * coeffs[i];
  }
  return acc;
}

void compare(const char* what, int64_t index, double analytic,
             double numeric, float tol) {
  const double scale = std::max(1.0, std::fabs(numeric));
  EXPECT_NEAR(analytic, numeric, tol * scale)
      << what << " element " << index;
}

}  // namespace

void fill_uniform(NDArray& t, Rng& rng, float lo, float hi) {
  for (int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(lo, hi));
  }
}

void expect_gradients_match(Module& module,
                            const std::vector<Shape>& input_shapes,
                            const GradCheckOptions& opts) {
  Rng rng(opts.seed);
  std::vector<NDArray> inputs;
  inputs.reserve(input_shapes.size());
  for (const Shape& s : input_shapes) {
    NDArray t(s);
    fill_uniform(t, rng, opts.input_lo, opts.input_hi);
    inputs.push_back(std::move(t));
  }
  expect_gradients_match_on(module, std::move(inputs), opts);
}

void expect_gradients_match_on(Module& module, std::vector<NDArray> inputs,
                               const GradCheckOptions& opts) {
  Rng rng(opts.seed ^ 0xABCDEF);

  // One forward to learn the output shape, then fixed coefficients.
  const NDArray out = run_forward(module, inputs, opts.training);
  NDArray coeffs(out.shape());
  fill_uniform(coeffs, rng, -1.0F, 1.0F);

  // Analytic gradients. Parameter grads accumulate, so clear them first.
  for (Param& p : module.params()) p.grad->zero();
  const std::vector<const NDArray*> ptrs = pointers(inputs);
  const std::vector<NDArray> analytic_inputs = module.backward(
      std::span<const NDArray* const>(ptrs.data(), ptrs.size()), out, coeffs);
  ASSERT_EQ(analytic_inputs.size(), inputs.size());

  std::vector<NDArray> analytic_params;
  for (Param& p : module.params()) analytic_params.push_back(*p.grad);

  // Numeric input gradients.
  for (size_t k = 0; k < inputs.size(); ++k) {
    for (int64_t i = 0; i < inputs[k].numel(); ++i) {
      const float saved = inputs[k][i];
      inputs[k][i] = saved + opts.eps;
      const double up = probe(module, inputs, coeffs, opts.training);
      inputs[k][i] = saved - opts.eps;
      const double dn = probe(module, inputs, coeffs, opts.training);
      inputs[k][i] = saved;
      const double numeric = (up - dn) / (2.0 * opts.eps);
      compare("input", i, analytic_inputs[k][i], numeric, opts.tol);
    }
  }

  // Numeric parameter gradients.
  auto params = module.params();
  for (size_t k = 0; k < params.size(); ++k) {
    NDArray& w = *params[k].value;
    for (int64_t i = 0; i < w.numel(); ++i) {
      const float saved = w[i];
      w[i] = saved + opts.eps;
      const double up = probe(module, inputs, coeffs, opts.training);
      w[i] = saved - opts.eps;
      const double dn = probe(module, inputs, coeffs, opts.training);
      w[i] = saved;
      const double numeric = (up - dn) / (2.0 * opts.eps);
      compare(params[k].name.c_str(), i, analytic_params[k][i], numeric,
              opts.tol);
    }
  }
}

}  // namespace dmis::nn::testing
