#include "train/straggler.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dmis::train {
namespace {

// Timestamps must be anchored at the real clock: the rolling windows
// inside the detector were created "now", and the `_at` hooks only make
// the window arithmetic deterministic, not rebase time.
class StragglerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    t0_ = obs::Tracer::now_us();
    ::unsetenv("DMIS_STRAGGLER_FACTOR");
  }
  void TearDown() override { ::unsetenv("DMIS_STRAGGLER_FACTOR"); }

  /// Feeds `n` step samples per rank; `slow_rank` takes slow_us, every
  /// other rank fast_us.
  static void feed(StragglerDetector& d, int64_t t, int n, int slow_rank,
                   double slow_us, double fast_us) {
    for (int i = 0; i < n; ++i) {
      for (int r = 0; r < d.world(); ++r) {
        d.record_step_at(t, r, r == slow_rank ? slow_us : fast_us);
      }
    }
  }

  int64_t t0_ = 0;
};

TEST_F(StragglerTest, FlagsTheSlowRank) {
  StragglerDetector d(4);
  feed(d, t0_, /*n=*/10, /*slow_rank=*/1, /*slow_us=*/3000.0,
       /*fast_us=*/1000.0);
  // The straggler's own sync wait is short; its peers stall.
  for (int i = 0; i < 10; ++i) {
    for (int r = 0; r < 4; ++r) {
      d.record_wait_at(t0_, r, r == 1 ? 100.0 : 2000.0);
    }
  }

  const auto report = d.check_at(t0_);
  EXPECT_TRUE(report.decided);
  EXPECT_TRUE(report.flagged);
  EXPECT_EQ(report.rank, 1);
  EXPECT_GE(report.ratio, 2.0);
  EXPECT_GT(report.worst_p50, report.median_p50);
  // worst_wait_p50 belongs to the *straggler*, whose wait is short.
  EXPECT_LT(report.worst_wait_p50, 1000.0);
}

TEST_F(StragglerTest, BalancedRanksAreNotFlagged) {
  StragglerDetector d(4);
  feed(d, t0_, 10, /*slow_rank=*/-1, 0.0, /*fast_us=*/1000.0);
  const auto report = d.check_at(t0_);
  EXPECT_TRUE(report.decided);
  EXPECT_FALSE(report.flagged);
  EXPECT_NEAR(report.ratio, 1.0, 1e-9);
}

TEST_F(StragglerTest, UndecidedBelowMinSamples) {
  StragglerDetector d(4);
  // min_samples defaults to 8; 5 per rank is not a verdict.
  feed(d, t0_, 5, 1, 9000.0, 1000.0);
  const auto report = d.check_at(t0_);
  EXPECT_FALSE(report.decided);
  EXPECT_FALSE(report.flagged);
}

TEST_F(StragglerTest, UndecidedWithOneRankEvenWithSamples) {
  StragglerDetector d(1);
  for (int i = 0; i < 20; ++i) d.record_step_at(t0_, 0, 1000.0);
  const auto report = d.check_at(t0_);
  EXPECT_FALSE(report.decided);
  EXPECT_FALSE(report.flagged);
}

TEST_F(StragglerTest, SamplesAgeOutOfTheWindow) {
  // One old slow phase on rank 1, then a full window of silence: the
  // verdict must go back to undecided, not keep flagging stale history.
  StragglerOptions opts;
  opts.window_us = 10'000'000;
  StragglerDetector d(4, opts);
  feed(d, t0_, 10, 1, 5000.0, 1000.0);
  EXPECT_TRUE(d.check_at(t0_).flagged);
  EXPECT_FALSE(d.check_at(t0_ + 2 * opts.window_us).decided);
}

TEST_F(StragglerTest, CheckUpdatesRegistryMetrics) {
  auto& reg = obs::MetricsRegistry::instance();
  const int64_t checks_before = reg.counter("train.straggler.checks").value();
  const int64_t flags_before = reg.counter("train.straggler.flags").value();

  StragglerDetector d(4);
  feed(d, t0_, 10, 2, 4000.0, 1000.0);
  const auto report = d.check_at(t0_);
  ASSERT_TRUE(report.flagged);
  EXPECT_EQ(report.rank, 2);

  EXPECT_EQ(reg.counter("train.straggler.checks").value(),
            checks_before + 1);
  EXPECT_EQ(reg.counter("train.straggler.flags").value(), flags_before + 1);
  EXPECT_DOUBLE_EQ(reg.gauge("train.straggler.rank").value(), 2.0);
  EXPECT_GT(reg.gauge("train.straggler.ratio").value(), 1.0);
}

TEST_F(StragglerTest, ThresholdComesFromEnv) {
  EXPECT_DOUBLE_EQ(StragglerOptions::from_env().threshold, 2.0);

  ::setenv("DMIS_STRAGGLER_FACTOR", "3.5", 1);
  EXPECT_DOUBLE_EQ(StragglerOptions::from_env().threshold, 3.5);

  // A factor <= 1 would flag every group; a trailing unit, junk or a
  // non-finite value is a typo, not a threshold. All are rejected.
  for (const char* bad : {"0.5", "1", "junk", "2.5x", "inf", "nan"}) {
    ::setenv("DMIS_STRAGGLER_FACTOR", bad, 1);
    EXPECT_THROW((void)StragglerOptions::from_env(), InvalidArgument) << bad;
  }
}

TEST_F(StragglerTest, ThresholdGatesTheVerdict) {
  StragglerOptions opts;
  opts.threshold = 4.0;
  StragglerDetector d(4, opts);
  // Ratio ~3x: flagged at the default 2.0, clean at 4.0.
  feed(d, t0_, 10, 1, 3000.0, 1000.0);
  const auto report = d.check_at(t0_);
  EXPECT_TRUE(report.decided);
  EXPECT_FALSE(report.flagged);
  EXPECT_GT(report.ratio, 2.0);
}

TEST_F(StragglerTest, TwoRankGroupUsesUpperMedian) {
  // With two ranks the upper median IS the worst rank, so the ratio
  // pins at 1.0 — a deliberate guard against flagging half of a pair.
  StragglerDetector d(2);
  feed(d, t0_, 10, 1, 9000.0, 1000.0);
  const auto report = d.check_at(t0_);
  EXPECT_TRUE(report.decided);
  EXPECT_FALSE(report.flagged);
  EXPECT_NEAR(report.ratio, 1.0, 1e-9);
}

}  // namespace
}  // namespace dmis::train
