#include "nn/loss.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "tensor/rng.hpp"

namespace dmis::nn {
namespace {

// Central-difference check of a loss gradient.
void check_loss_grad(const Loss& loss, const NDArray& pred,
                     const NDArray& target, float eps = 1e-3F,
                     float tol = 1e-3F) {
  const LossResult res = loss.compute(pred, target);
  NDArray p = pred;
  for (int64_t i = 0; i < p.numel(); ++i) {
    const float saved = p[i];
    p[i] = saved + eps;
    const double up = loss.compute(p, target).value;
    p[i] = saved - eps;
    const double dn = loss.compute(p, target).value;
    p[i] = saved;
    const double numeric = (up - dn) / (2.0 * eps);
    EXPECT_NEAR(res.grad[i], numeric, tol) << "element " << i;
  }
}

NDArray random_probs(const Shape& s, uint64_t seed) {
  NDArray t(s);
  Rng rng(seed);
  for (int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(0.05, 0.95));
  }
  return t;
}

NDArray random_mask(const Shape& s, uint64_t seed) {
  NDArray t(s);
  Rng rng(seed);
  for (int64_t i = 0; i < t.numel(); ++i) {
    t[i] = rng.uniform() < 0.4 ? 1.0F : 0.0F;
  }
  return t;
}

TEST(SoftDiceLossTest, PerfectMatchIsNearZero) {
  SoftDiceLoss loss;
  NDArray mask = random_mask(Shape{2, 1, 2, 2, 2}, 1);
  const LossResult res = loss.compute(mask, mask);
  EXPECT_LT(res.value, 0.01);
}

TEST(SoftDiceLossTest, CompleteMismatchIsNearOne) {
  SoftDiceLoss loss;
  NDArray pred(Shape{1, 1, 2, 2, 2}, 1.0F);
  NDArray target(Shape{1, 1, 2, 2, 2}, 0.0F);
  const LossResult res = loss.compute(pred, target);
  EXPECT_GT(res.value, 0.95);
}

TEST(SoftDiceLossTest, EmptyBothMasksHandledByEpsilon) {
  SoftDiceLoss loss;
  NDArray zero(Shape{1, 1, 2, 2, 2}, 0.0F);
  const LossResult res = loss.compute(zero, zero);
  EXPECT_NEAR(res.value, 0.0, 1e-6);  // eps/eps = 1 -> loss 0
}

TEST(SoftDiceLossTest, GradientMatchesNumeric) {
  SoftDiceLoss loss;
  const Shape s{2, 1, 2, 2, 2};
  check_loss_grad(loss, random_probs(s, 3), random_mask(s, 4));
}

TEST(SoftDiceLossTest, LossDecreasesAlongNegativeGradient) {
  SoftDiceLoss loss;
  const Shape s{1, 1, 2, 2, 2};
  NDArray pred = random_probs(s, 5);
  NDArray target = random_mask(s, 6);
  const LossResult res = loss.compute(pred, target);
  NDArray stepped = pred;
  stepped.axpy_(-0.05F, res.grad);
  EXPECT_LT(loss.compute(stepped, target).value, res.value);
}

TEST(QuadraticSoftDiceLossTest, PerfectBinaryMatchIsNearZero) {
  QuadraticSoftDiceLoss loss;
  NDArray mask = random_mask(Shape{1, 1, 2, 2, 2}, 7);
  EXPECT_LT(loss.compute(mask, mask).value, 0.01);
}

TEST(QuadraticSoftDiceLossTest, GradientMatchesNumeric) {
  QuadraticSoftDiceLoss loss;
  const Shape s{2, 1, 2, 2, 2};
  check_loss_grad(loss, random_probs(s, 8), random_mask(s, 9));
}

TEST(QuadraticSoftDiceLossTest, DiffersFromLinearVariant) {
  const Shape s{1, 1, 2, 2, 2};
  NDArray pred = random_probs(s, 10);
  NDArray target = random_mask(s, 11);
  const double lin = SoftDiceLoss().compute(pred, target).value;
  const double quad = QuadraticSoftDiceLoss().compute(pred, target).value;
  EXPECT_NE(lin, quad);
}

TEST(LossFactoryTest, CreatesByNameAndRejectsUnknown) {
  EXPECT_EQ(make_loss("dice")->name(), "dice");
  EXPECT_EQ(make_loss("qdice")->name(), "qdice");
  EXPECT_THROW(make_loss("bce"), InvalidArgument);
  EXPECT_THROW(make_loss("focal"), InvalidArgument);
}

TEST(LossTest, ShapeMismatchThrows) {
  SoftDiceLoss loss;
  NDArray a(Shape{1, 2});
  NDArray b(Shape{2, 1});
  EXPECT_THROW(loss.compute(a, b), InvalidArgument);
}

}  // namespace
}  // namespace dmis::nn
