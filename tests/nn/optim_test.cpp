#include "nn/optim.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "tensor/rng.hpp"

namespace dmis::nn {
namespace {

// A single scalar "parameter" with its gradient for closed-form checks.
struct ScalarParam {
  NDArray w{Shape{1}};
  NDArray g{Shape{1}};
  std::vector<Param> params() { return {{"w", &w, &g}}; }
};

TEST(AdamTest, FirstStepMagnitudeIsLr) {
  // With bias correction, |first update| ~= lr regardless of grad scale.
  ScalarParam p;
  Adam opt(p.params(), 0.01);
  p.g[0] = 1234.0F;
  opt.step();
  EXPECT_NEAR(p.w[0], -0.01F, 1e-4F);
}

TEST(AdamTest, MinimizesQuadratic) {
  ScalarParam p;
  p.w[0] = 3.0F;
  Adam opt(p.params(), 0.05);
  for (int i = 0; i < 500; ++i) {
    p.g[0] = 2.0F * p.w[0];
    opt.step();
  }
  EXPECT_NEAR(p.w[0], 0.0F, 1e-2F);
}

TEST(AdamTest, MinimizesRosenbrockish2d) {
  // f(x, y) = (1-x)^2 + 10 (y - x^2)^2 — a curved valley.
  NDArray w(Shape{2});
  NDArray g(Shape{2});
  w[0] = -1.0F;
  w[1] = 1.0F;
  std::vector<Param> params{{"w", &w, &g}};
  Adam opt(params, 0.02);
  for (int i = 0; i < 4000; ++i) {
    const float x = w[0], y = w[1];
    g[0] = -2.0F * (1.0F - x) - 40.0F * x * (y - x * x);
    g[1] = 20.0F * (y - x * x);
    opt.step();
  }
  EXPECT_NEAR(w[0], 1.0F, 0.05F);
  EXPECT_NEAR(w[1], 1.0F, 0.1F);
}

TEST(OptimizerTest, ZeroGradClears) {
  ScalarParam p;
  Adam opt(p.params(), 0.1);
  p.g[0] = 7.0F;
  opt.zero_grad();
  EXPECT_EQ(p.g[0], 0.0F);
}

TEST(OptimizerTest, SetLrTakesEffect) {
  // Adam's bias-corrected first update is lr * g / |g|, so the step
  // taken is the lr set after construction, not the one passed in.
  ScalarParam p;
  Adam opt(p.params(), 0.1);
  opt.set_lr(1.0);
  EXPECT_EQ(opt.lr(), 1.0);
  p.g[0] = 1.0F;
  opt.step();
  EXPECT_NEAR(p.w[0], -1.0F, 1e-6F);
}

TEST(OptimizerTest, RejectsBadConfigs) {
  ScalarParam p;
  EXPECT_THROW(Adam(p.params(), -0.1), InvalidArgument);
  EXPECT_THROW(Adam(p.params(), 0.0), InvalidArgument);
  EXPECT_THROW(Adam(p.params(), 0.1, /*beta1=*/1.5), InvalidArgument);
  EXPECT_THROW(Adam(p.params(), 0.1, 0.9, /*beta2=*/1.0), InvalidArgument);
}

TEST(OptimizerFactoryTest, ByName) {
  ScalarParam p;
  EXPECT_EQ(make_optimizer("adam", p.params(), 0.1)->name(), "adam");
  EXPECT_THROW(make_optimizer("sgd", p.params(), 0.1), InvalidArgument);
  EXPECT_THROW(make_optimizer("rmsprop", p.params(), 0.1), InvalidArgument);
}

TEST(OptimizerTest, StepCountAdvances) {
  ScalarParam p;
  Adam opt(p.params(), 0.1);
  EXPECT_EQ(opt.step_count(), 0);
  opt.step();
  opt.step();
  EXPECT_EQ(opt.step_count(), 2);
}

TEST(OptimizerTest, StateParamsExposeNamedSlotState) {
  ScalarParam p;
  Adam adam(p.params(), 0.1);
  const auto adam_state = adam.state_params();
  ASSERT_EQ(adam_state.size(), 2U);  // m and v per parameter
  EXPECT_EQ(adam_state[0].name, "opt.m.w");
  EXPECT_EQ(adam_state[1].name, "opt.v.w");
  // The grad field aliases the slot tensor; checkpoint I/O reads value.
  for (const Param& slot : adam_state) EXPECT_EQ(slot.grad, slot.value);

  // Slot state is live: one step moves m and v off zero.
  p.g[0] = 2.0F;
  adam.step();
  EXPECT_NE((*adam_state[0].value)[0], 0.0F);
  EXPECT_NE((*adam_state[1].value)[0], 0.0F);
}

// The checkpoint-resume contract: copying weights + slot state +
// step_count into a fresh optimizer must continue *exactly* where the
// original left off — Adam's bias correction depends on step_count, so
// a missed counter would silently skew the resumed trajectory.
TEST(OptimizerTest, AdamStateRoundTripResumesExactly) {
  ScalarParam a;
  a.w[0] = 2.0F;
  Adam original(a.params(), 0.05);
  const auto grad_at = [](float w) { return 2.0F * w; };  // d/dw of w^2
  for (int i = 0; i < 3; ++i) {
    a.g[0] = grad_at(a.w[0]);
    original.step();
  }

  // "Restore" into a fresh optimizer: weights, m/v slots, step count.
  ScalarParam b;
  b.w[0] = a.w[0];
  Adam resumed(b.params(), 0.05);
  const auto src = original.state_params();
  const auto dst = resumed.state_params();
  ASSERT_EQ(src.size(), dst.size());
  for (size_t i = 0; i < src.size(); ++i) {
    for (int64_t k = 0; k < src[i].value->numel(); ++k) {
      (*dst[i].value)[k] = (*src[i].value)[k];
    }
  }
  resumed.set_step_count(original.step_count());

  for (int i = 0; i < 5; ++i) {
    a.g[0] = grad_at(a.w[0]);
    original.step();
    b.g[0] = grad_at(b.w[0]);
    resumed.step();
    ASSERT_EQ(a.w[0], b.w[0]) << "diverged at resumed step " << i;
  }

  // Without the step counter the bias correction differs immediately.
  ScalarParam c;
  c.w[0] = a.w[0];
  Adam wrong(c.params(), 0.05);
  c.g[0] = grad_at(c.w[0]);
  a.g[0] = grad_at(a.w[0]);
  original.step();
  wrong.step();  // step_count 1 vs the original's 9
  EXPECT_NE(a.w[0], c.w[0]);
}

// The scalar Adam step as it was written before Adam::apply vectorized:
// apply must match it bit for bit.
void reference_adam_step(std::vector<NDArray>& w, const std::vector<NDArray>& g,
                         std::vector<NDArray>& m, std::vector<NDArray>& v,
                         int64_t step, double lr, double beta1, double beta2,
                         double eps) {
  const double bc1 = 1.0 - std::pow(beta1, static_cast<double>(step));
  const double bc2 = 1.0 - std::pow(beta2, static_cast<double>(step));
  for (size_t i = 0; i < w.size(); ++i) {
    for (int64_t j = 0; j < w[i].numel(); ++j) {
      m[i][j] = static_cast<float>(beta1 * m[i][j] + (1.0 - beta1) * g[i][j]);
      v[i][j] = static_cast<float>(beta2 * v[i][j] +
                                   (1.0 - beta2) *
                                       static_cast<double>(g[i][j]) * g[i][j]);
      const double m_hat = m[i][j] / bc1;
      const double v_hat = v[i][j] / bc2;
      w[i][j] -= static_cast<float>(lr * m_hat / (std::sqrt(v_hat) + eps));
    }
  }
}

bool bitwise_equal(const NDArray& a, const NDArray& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

TEST(AdamTest, StepIsBitwiseEqualToScalarLoop) {
  // Sizes around every vector width, none a multiple of 8 but one.
  const std::vector<int64_t> sizes = {1, 3, 8, 13, 31, 1027};
  std::vector<NDArray> w, g, ref_w, ref_m, ref_v;
  Rng rng(17);
  for (const int64_t n : sizes) {
    NDArray t(Shape{n});
    for (int64_t j = 0; j < n; ++j) {
      t[j] = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    w.push_back(t);
    ref_w.push_back(t);
    g.emplace_back(Shape{n});
    ref_m.emplace_back(Shape{n});
    ref_v.emplace_back(Shape{n});
  }
  std::vector<Param> params;
  for (size_t i = 0; i < w.size(); ++i) {
    params.push_back({"p" + std::to_string(i), &w[i], &g[i]});
  }
  const double lr = 3e-3, beta1 = 0.85, beta2 = 0.995, eps = 1e-7;
  Adam adam(params, lr, beta1, beta2, eps);
  for (int64_t step = 1; step <= 6; ++step) {
    for (NDArray& t : g) {
      for (int64_t j = 0; j < t.numel(); ++j) {
        // Zero and tiny gradients exercise v_hat == 0 and denormal paths.
        t[j] = (j % 5 == 0) ? 0.0F
                            : static_cast<float>(rng.normal() *
                                                 (j % 3 == 0 ? 1e-20 : 1.0));
      }
    }
    adam.step();
    reference_adam_step(ref_w, g, ref_m, ref_v, step, lr, beta1, beta2, eps);
    const std::vector<Param> state = adam.state_params();
    for (size_t i = 0; i < w.size(); ++i) {
      EXPECT_TRUE(bitwise_equal(w[i], ref_w[i]))
          << "weights of param " << i << " at step " << step;
      EXPECT_TRUE(bitwise_equal(*state[2 * i].value, ref_m[i]))
          << "m of param " << i << " at step " << step;
      EXPECT_TRUE(bitwise_equal(*state[2 * i + 1].value, ref_v[i]))
          << "v of param " << i << " at step " << step;
    }
  }
}

}  // namespace
}  // namespace dmis::nn
