// Finite-difference gradient checking for Modules.
//
// For a module M and a fixed random coefficient tensor c, define the
// scalar probe  f(inputs, params) = sum_i c_i * M(inputs)_i .
// Analytic gradients come from M.backward(c); numeric gradients from
// central differences on every input and parameter element. float32
// arithmetic limits accuracy, so comparisons use a combined
// absolute/relative tolerance.
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "nn/module.hpp"
#include "tensor/rng.hpp"

namespace dmis::nn::testing {

struct GradCheckOptions {
  float eps = 1e-2F;        ///< Central-difference step.
  float tol = 2e-2F;        ///< max(|a-n|) <= tol * max(1, |n|).
  bool training = true;     ///< Mode passed to forward().
  uint64_t seed = 1234;     ///< Coefficients and input values.
  float input_lo = -1.0F;   ///< Uniform input range.
  float input_hi = 1.0F;
};

/// Fills `t` with uniform values from `rng`.
void fill_uniform(NDArray& t, Rng& rng, float lo, float hi);

/// Runs the probe check on `module` with fresh random inputs of the given
/// shapes. Reports EXPECT failures with element coordinates on mismatch.
void expect_gradients_match(Module& module,
                            const std::vector<Shape>& input_shapes,
                            const GradCheckOptions& opts = {});

/// Same check with caller-supplied inputs (e.g. tie-free values for
/// max pooling, whose numeric gradient breaks at argmax boundaries).
void expect_gradients_match_on(Module& module, std::vector<NDArray> inputs,
                               const GradCheckOptions& opts = {});

}  // namespace dmis::nn::testing
