#include "nn/lr_schedule.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

namespace dmis::nn {
namespace {

TEST(ConstantLrTest, AlwaysSame) {
  ConstantLr lr(1e-4);
  EXPECT_DOUBLE_EQ(lr.lr(0), 1e-4);
  EXPECT_DOUBLE_EQ(lr.lr(100000), 1e-4);
  EXPECT_THROW(ConstantLr(0.0), InvalidArgument);
}

TEST(CyclicLrTest, TriangularWave) {
  CyclicLr lr(0.001, 0.006, 100);
  EXPECT_DOUBLE_EQ(lr.lr(0), 0.001);       // cycle start: base
  EXPECT_DOUBLE_EQ(lr.lr(100), 0.006);     // peak at step_size
  EXPECT_DOUBLE_EQ(lr.lr(200), 0.001);     // back to base
  EXPECT_DOUBLE_EQ(lr.lr(50), 0.0035);     // halfway up
  EXPECT_DOUBLE_EQ(lr.lr(150), 0.0035);    // halfway down
  EXPECT_DOUBLE_EQ(lr.lr(300), 0.006);     // second cycle peak
}

TEST(CyclicLrTest, StaysWithinBand) {
  CyclicLr lr(1e-4, 1e-3, 37);
  for (int64_t s = 0; s < 1000; ++s) {
    EXPECT_GE(lr.lr(s), 1e-4);
    EXPECT_LE(lr.lr(s), 1e-3);
  }
}

TEST(CyclicLrTest, RejectsBadBand) {
  EXPECT_THROW(CyclicLr(1e-3, 1e-4, 10), InvalidArgument);
  EXPECT_THROW(CyclicLr(1e-4, 1e-3, 0), InvalidArgument);
}

TEST(LrScheduleTest, NegativeStepThrows) {
  CyclicLr lr(1e-4, 1e-3, 10);
  EXPECT_THROW(lr.lr(-1), InvalidArgument);
}

}  // namespace
}  // namespace dmis::nn
