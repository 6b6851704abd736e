#include "obs/rolling.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dmis::obs {
namespace {

// All tests drive the window with explicit `_at` timestamps, so slot
// expiry is deterministic regardless of wall-clock scheduling.
constexpr int64_t kWindowUs = 10'000'000;  // 10 s in 10 slots of 1 s
constexpr int kSlots = 10;
constexpr int64_t kSlotUs = kWindowUs / kSlots;

TEST(RollingHistogramTest, WindowForgetsOldSlots) {
  RollingHistogram h("test.rh_forget", {10.0}, kWindowUs, kSlots);
  for (int i = 0; i < 5; ++i) h.observe_at(1 * kSlotUs, 1.0);
  for (int i = 0; i < 7; ++i) h.observe_at(2 * kSlotUs, 1.0);
  EXPECT_EQ(h.windowed_count_at(2 * kSlotUs), 12);

  // Advance just past the window: slot 1 fell out, slot 2 remains.
  EXPECT_EQ(h.windowed_count_at((1 + kSlots) * kSlotUs), 7);
  // Far future: everything forgotten.
  EXPECT_EQ(h.windowed_count_at(100 * kSlotUs), 0);
}

TEST(RollingHistogramTest, SlotReuseZeroesStaleCounts) {
  RollingHistogram h("test.rh_reuse", {10.0}, kWindowUs, kSlots);
  for (int i = 0; i < 100; ++i) h.observe_at(3 * kSlotUs, 1.0);
  // Same ring index one full revolution later must not inherit the 100.
  h.observe_at((3 + kSlots) * kSlotUs, 1.0);
  EXPECT_EQ(h.windowed_count_at((3 + kSlots) * kSlotUs), 1);
  EXPECT_EQ(h.windowed_buckets_at((3 + kSlots) * kSlotUs)[0], 1);
}

TEST(RollingHistogramTest, RateUsesCoveredSpan) {
  // Rates divide by covered time = min(window, instrument age), so the
  // timestamps here must be anchored at the real construction time.
  const int64_t t0 = Tracer::now_us();
  RollingHistogram h("test.rh_rate", {10.0}, kWindowUs, kSlots);
  // 50 observations in the first slot of life: the denominator clamps
  // to one slot width, not the whole empty window.
  for (int i = 0; i < 50; ++i) h.observe_at(t0 + kSlotUs / 2, 1.0);
  EXPECT_GE(h.rate_at(t0 + kSlotUs / 2), 45.0);
  // Nine slots later the covered span has grown to ~9 s: 50/9 ~ 5.6.
  EXPECT_NEAR(h.rate_at(t0 + kWindowUs - kSlotUs), 50.0 / 9.0, 1.0);
}

TEST(RollingHistogramTest, QuantilesTrackTheWindow) {
  RollingHistogram h("test.rh", {10.0, 100.0, 1000.0}, kWindowUs, kSlots);
  // Old slow phase...
  for (int i = 0; i < 20; ++i) h.observe_at(1 * kSlotUs, 500.0);
  // ...new fast phase.
  for (int i = 0; i < 20; ++i) h.observe_at(2 * kSlotUs, 50.0);

  // Both phases in window: p50 sits at the boundary region.
  EXPECT_EQ(h.windowed_count_at(2 * kSlotUs), 40);
  // Slow phase expired: only the fast observations remain.
  const int64_t later = (1 + kSlots) * kSlotUs;
  EXPECT_EQ(h.windowed_count_at(later), 20);
  const double p50 = h.quantile_at(later, 0.5);
  EXPECT_GT(p50, 10.0);
  EXPECT_LE(p50, 100.0);
  // p99 no longer sees the 500s either.
  EXPECT_LE(h.quantile_at(later, 0.99), 100.0);
}

TEST(RollingHistogramTest, WindowedBucketsMergeLiveSlotsOnly) {
  RollingHistogram h("test.rh2", {10.0}, kWindowUs, kSlots);
  h.observe_at(1 * kSlotUs, 5.0);
  h.observe_at(2 * kSlotUs, 50.0);
  std::vector<int64_t> buckets = h.windowed_buckets_at(2 * kSlotUs);
  ASSERT_EQ(buckets.size(), 2U);
  EXPECT_EQ(buckets[0], 1);  // <= 10
  EXPECT_EQ(buckets[1], 1);  // overflow

  buckets = h.windowed_buckets_at((1 + kSlots) * kSlotUs);
  EXPECT_EQ(buckets[0], 0);
  EXPECT_EQ(buckets[1], 1);
}

TEST(RollingTest, ConcurrentAddersAndReadersAreExact) {
  // Default 60 s window: nothing expires mid-test.
  RollingHistogram h("test.rh3", {1e3, 1e6});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads + 2);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) h.observe(500.0);
    });
  }
  // Concurrent readers (the scrape path) must race cleanly under TSan.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        (void)h.rate_per_sec();
        (void)h.quantile(0.5);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.windowed_count(), int64_t{kThreads} * kPerThread);
  EXPECT_EQ(h.windowed_buckets()[0], int64_t{kThreads} * kPerThread);
}

TEST(RollingTest, RegistryRegistrationIsFirstWinsAndStable) {
  auto& reg = MetricsRegistry::instance();
  RollingHistogram& ha = reg.rolling_histogram("test.reg_rh");
  RollingHistogram& hb =
      reg.rolling_histogram("test.reg_rh", {1.0}, 5'000'000);
  EXPECT_EQ(&ha, &hb);
  EXPECT_EQ(hb.bounds(), default_duration_bounds());
  ha.observe(3.0);
  EXPECT_EQ(hb.windowed_count(), 1);
  reg.reset();
  EXPECT_EQ(ha.windowed_count(), 0);
}

}  // namespace
}  // namespace dmis::obs
