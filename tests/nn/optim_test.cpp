#include "nn/optim.hpp"

#include <gtest/gtest.h>

#include <cmath>

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

}  // namespace
}  // namespace dmis::nn
