#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include "obs/rolling.hpp"

#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace dmis::obs {
namespace {

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override { MetricsRegistry::instance().reset(); }
  void TearDown() override { MetricsRegistry::instance().reset(); }
};

TEST_F(MetricsTest, CounterHammeredFromManyThreadsIsExact) {
  Counter& c = MetricsRegistry::instance().counter("test.hammer");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), int64_t{kThreads} * kPerThread);
}

TEST_F(MetricsTest, CounterLookupReturnsSameInstrument) {
  auto& reg = MetricsRegistry::instance();
  Counter& a = reg.counter("test.same");
  Counter& b = reg.counter("test.same");
  EXPECT_EQ(&a, &b);
  a.add(5);
  EXPECT_EQ(b.value(), 5);
}

TEST_F(MetricsTest, GaugeKeepsLastValue) {
  Gauge& g = MetricsRegistry::instance().gauge("test.gauge");
  g.set(1.5);
  g.set(-2.25);
  EXPECT_DOUBLE_EQ(g.value(), -2.25);
}

TEST_F(MetricsTest, HistogramBucketsObservations) {
  Histogram& h = MetricsRegistry::instance().histogram(
      "test.hist", std::vector<double>{1.0, 10.0, 100.0});
  h.observe(0.5);    // bucket 0 (<= 1)
  h.observe(1.0);    // bucket 0 (boundary counts down)
  h.observe(5.0);    // bucket 1
  h.observe(1000.0); // overflow
  EXPECT_EQ(h.count(), 4);
  EXPECT_DOUBLE_EQ(h.sum(), 1006.5);
  EXPECT_EQ(h.bucket_count(0), 2);
  EXPECT_EQ(h.bucket_count(1), 1);
  EXPECT_EQ(h.bucket_count(2), 0);
  EXPECT_EQ(h.bucket_count(3), 1);  // overflow bucket
}

TEST_F(MetricsTest, HistogramHammeredFromManyThreadsIsExact) {
  Histogram& h = MetricsRegistry::instance().histogram(
      "test.hist_hammer", std::vector<double>{10.0, 100.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) {
        h.observe(static_cast<double>(i % 2));  // integer values: exact sum
      }
    });
  }
  for (auto& t : threads) t.join();
  const int64_t total = int64_t{kThreads} * kPerThread;
  EXPECT_EQ(h.count(), total);
  // Half the observations are 1.0; sums this small are exact in double.
  EXPECT_DOUBLE_EQ(h.sum(), static_cast<double>(total / 2));
  EXPECT_EQ(h.bucket_count(0), total);  // all values <= 10
}

TEST_F(MetricsTest, ResetZeroesButKeepsReferences) {
  auto& reg = MetricsRegistry::instance();
  Counter& c = reg.counter("test.reset");
  c.add(7);
  reg.reset();
  EXPECT_EQ(c.value(), 0);
  c.add(1);  // cached reference still valid
  EXPECT_EQ(reg.counter("test.reset").value(), 1);
}

TEST_F(MetricsTest, SnapshotCoversAllInstrumentKinds) {
  auto& reg = MetricsRegistry::instance();
  reg.counter("test.snap_c").add(3);
  reg.gauge("test.snap_g").set(2.5);
  reg.histogram("test.snap_h").observe(42.0);

  const MetricsSnapshot snap = reg.snapshot();
  bool saw_c = false, saw_g = false, saw_h = false;
  for (const auto& c : snap.counters) {
    if (c.name == "test.snap_c") {
      saw_c = true;
      EXPECT_EQ(c.value, 3);
    }
  }
  for (const auto& g : snap.gauges) {
    if (g.name == "test.snap_g") {
      saw_g = true;
      EXPECT_DOUBLE_EQ(g.value, 2.5);
    }
  }
  for (const auto& h : snap.histograms) {
    if (h.name == "test.snap_h") {
      saw_h = true;
      EXPECT_EQ(h.count, 1);
      EXPECT_EQ(h.buckets.size(), h.bounds.size() + 1);
    }
  }
  EXPECT_TRUE(saw_c);
  EXPECT_TRUE(saw_g);
  EXPECT_TRUE(saw_h);
}

TEST_F(MetricsTest, DumpJsonlEmitsOneObjectPerLine) {
  auto& reg = MetricsRegistry::instance();
  reg.counter("test.jsonl_counter").add(11);
  reg.histogram("test.jsonl_hist", std::vector<double>{1.0}).observe(0.5);

  std::ostringstream os;
  reg.dump_jsonl(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("{\"type\":\"counter\",\"name\":\"test.jsonl_counter\","
                     "\"value\":11}"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("\"type\":\"histogram\""), std::string::npos);
  EXPECT_NE(out.find("{\"le\":\"inf\""), std::string::npos);

  // Every line is a {...} object.
  std::istringstream lines(out);
  std::string line;
  int n = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    ++n;
  }
  EXPECT_GE(n, 2);
}

TEST_F(MetricsTest, QuantileInterpolatesInsideBucket) {
  // Standalone histogram — the shared estimator the exporter, dmis_top
  // and bench_serve all reuse.
  Histogram h("test.quantile", {10.0, 20.0, 40.0});
  // 10 observations in (10, 20]: p50 lands mid-bucket.
  for (int i = 0; i < 10; ++i) h.observe(15.0);
  // rank 5 of 10, all in bucket (10, 20] -> 10 + 10 * 5/10 = 15.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 15.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 20.0);
}

TEST_F(MetricsTest, QuantileSpansBuckets) {
  Histogram h("test.quantile2", {10.0, 20.0, 40.0});
  for (int i = 0; i < 8; ++i) h.observe(5.0);    // bucket [0, 10]
  for (int i = 0; i < 2; ++i) h.observe(30.0);   // bucket (20, 40]
  // p50: rank 5 of 10 inside the first bucket -> 10 * 5/8 = 6.25.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 6.25);
  // p95: rank 9.5; first bucket holds 8, so 1.5 into the (20, 40]
  // bucket of 2 -> 20 + 20 * 1.5/2 = 35.
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 35.0);
}

TEST_F(MetricsTest, QuantileEmptyAndOverflow) {
  Histogram h("test.quantile3", {10.0, 20.0});
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty -> 0
  h.observe(100.0);                        // overflow bucket
  // Overflow clamps to the last finite bound (Prometheus behavior).
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 20.0);
}

// Regressions for the quantile edge cases: a single sample, q=0 with
// empty leading buckets, everything in the overflow bucket, and a
// bound-less histogram. The estimator must skip empty buckets (so q=0
// lands at the lower edge of the first *populated* bucket) and clamp
// interpolation inside the containing bucket.
TEST_F(MetricsTest, QuantileSingleSampleInterpolatesItsBucket) {
  Histogram h("test.quantile_single", {10.0, 20.0, 40.0});
  h.observe(15.0);  // one sample, bucket (10, 20]
  // rank q*1 inside a bucket of one: 10 + 10*q for every q.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 15.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 20.0);
}

TEST_F(MetricsTest, QuantileZeroSkipsEmptyLeadingBuckets) {
  Histogram h("test.quantile_q0", {10.0, 20.0, 40.0});
  for (int i = 0; i < 4; ++i) h.observe(30.0);  // all in (20, 40]
  // q=0 must land at the lower edge of the populated bucket — not at
  // the upper edge of an empty leading one.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 20.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 40.0);
}

TEST_F(MetricsTest, QuantileAllInOverflowClampsToLastBound) {
  Histogram h("test.quantile_overflow", {10.0, 20.0});
  for (int i = 0; i < 3; ++i) h.observe(100.0);
  for (const double q : {0.0, 0.5, 1.0}) {
    EXPECT_DOUBLE_EQ(h.quantile(q), 20.0) << "q=" << q;
  }
}

TEST_F(MetricsTest, QuantileWithoutBoundsIsZero) {
  Histogram h("test.quantile_boundless", {});
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty
  h.observe(7.0);  // lands in the (only) overflow bucket
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // no finite bound to clamp to
}

TEST_F(MetricsTest, QuantileFromSnapshotBucketsMatchesLive) {
  Histogram h("test.quantile4", {1.0, 2.0, 4.0, 8.0});
  for (int i = 0; i < 100; ++i) h.observe(0.5 + 0.07 * (i % 100));
  std::vector<int64_t> buckets;
  for (size_t i = 0; i <= h.bounds().size(); ++i) {
    buckets.push_back(h.bucket_count(i));
  }
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(Histogram::quantile_from(h.bounds(), buckets, q),
                     h.quantile(q));
  }
}

TEST_F(MetricsTest, RollingInstrumentsAppearInSnapshotAndJsonl) {
  auto& reg = MetricsRegistry::instance();
  reg.rolling_histogram("test.roll_hist").observe(100.0);

  const MetricsSnapshot snap = reg.snapshot();
  bool saw_rh = false;
  for (const auto& rh : snap.rolling_histograms) {
    if (rh.name == "test.roll_hist") {
      saw_rh = true;
      EXPECT_EQ(rh.windowed_count, 1);
      EXPECT_GT(rh.p50, 0.0);
      EXPECT_GT(rh.rate_per_sec, 0.0);
    }
  }
  EXPECT_TRUE(saw_rh);

  std::ostringstream os;
  reg.dump_jsonl(os);
  EXPECT_NE(os.str().find("\"type\":\"rolling_histogram\""),
            std::string::npos);
}

}  // namespace
}  // namespace dmis::obs
