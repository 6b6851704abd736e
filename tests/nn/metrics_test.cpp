#include "nn/metrics.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/check.hpp"

namespace dmis::nn {
namespace {

TEST(MetricsTest, ConfusionCountsAllQuadrants) {
  NDArray pred(Shape{4}, std::vector<float>{0.9F, 0.9F, 0.1F, 0.1F});
  NDArray target(Shape{4}, std::vector<float>{1.0F, 0.0F, 1.0F, 0.0F});
  const ConfusionCounts c = confusion(pred, target);
  EXPECT_EQ(c.tp, 1);
  EXPECT_EQ(c.fp, 1);
  EXPECT_EQ(c.fn, 1);
  EXPECT_EQ(c.tn, 1);
}

TEST(MetricsTest, PerfectDice) {
  NDArray mask(Shape{8}, std::vector<float>{1, 0, 1, 0, 1, 1, 0, 0});
  EXPECT_DOUBLE_EQ(dice_score(mask, mask), 1.0);
}

TEST(MetricsTest, DisjointMasksScoreZero) {
  NDArray pred(Shape{4}, std::vector<float>{1, 1, 0, 0});
  NDArray target(Shape{4}, std::vector<float>{0, 0, 1, 1});
  EXPECT_DOUBLE_EQ(dice_score(pred, target), 0.0);
}

TEST(MetricsTest, KnownPartialOverlap) {
  // pred {a,b}, target {b,c}: dice = 2*1/(2+2) = 0.5.
  NDArray pred(Shape{3}, std::vector<float>{1, 1, 0});
  NDArray target(Shape{3}, std::vector<float>{0, 1, 1});
  EXPECT_DOUBLE_EQ(dice_score(pred, target), 0.5);
}

TEST(MetricsTest, EmptyMasksConventions) {
  NDArray zero(Shape{4}, 0.0F);
  EXPECT_DOUBLE_EQ(dice_score(zero, zero), 1.0);
}

TEST(MetricsTest, ThresholdApplied) {
  NDArray pred(Shape{2}, std::vector<float>{0.4F, 0.6F});
  NDArray target(Shape{2}, std::vector<float>{1.0F, 1.0F});
  EXPECT_EQ(confusion(pred, target, 0.5F).tp, 1);
  EXPECT_EQ(confusion(pred, target, 0.3F).tp, 2);
  EXPECT_DOUBLE_EQ(dice_score(pred, target, 0.5F), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(dice_score(pred, target, 0.3F), 1.0);
}

TEST(MetricsTest, DiceIsF1OfPrecisionRecall) {
  NDArray pred(Shape{6}, std::vector<float>{1, 1, 1, 0, 0, 0});
  NDArray target(Shape{6}, std::vector<float>{1, 0, 1, 1, 0, 0});
  const ConfusionCounts c = confusion(pred, target);
  const double p =
      static_cast<double>(c.tp) / static_cast<double>(c.tp + c.fp);
  const double r =
      static_cast<double>(c.tp) / static_cast<double>(c.tp + c.fn);
  EXPECT_NEAR(dice_score(pred, target), 2.0 * p * r / (p + r), 1e-12);
}

TEST(MetricsTest, ShapeMismatchThrows) {
  NDArray a(Shape{2});
  NDArray b(Shape{3});
  EXPECT_THROW(confusion(a, b), InvalidArgument);
}

}  // namespace
}  // namespace dmis::nn
