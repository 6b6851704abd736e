#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_injector.hpp"
#include "core/serve.hpp"
#include "data/volume.hpp"
#include "obs/metrics.hpp"
#include "tensor/rng.hpp"
#include "tensor/thread_pool.hpp"

namespace dmis::serve {
namespace {

nn::UNet3dOptions tiny_model() {
  nn::UNet3dOptions opts;
  opts.in_channels = 1;
  opts.base_filters = 2;
  opts.depth = 2;
  opts.seed = 11;
  return opts;
}

data::Volume noise_volume(uint64_t seed, int64_t d = 8, int64_t h = 8,
                          int64_t w = 8) {
  data::Volume v(1, d, h, w);
  Rng rng(seed);
  for (int64_t i = 0; i < v.tensor().numel(); ++i) {
    v.tensor()[i] = static_cast<float>(rng.normal());
  }
  return v;
}

ServeOptions base_options(int workers) {
  ServeOptions options;
  options.num_workers = workers;
  options.queue_capacity = 8;
  options.default_deadline_ms = 0;
  return options;
}

/// Resolves the future and returns the ServeError kind it failed with.
ServeErrorKind failure_kind(std::future<core::SegmentationResult>& fut) {
  try {
    (void)fut.get();
  } catch (const ServeError& e) {
    return e.kind();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "future failed with a non-ServeError: " << e.what();
    return ServeErrorKind::kBackendFailed;
  }
  ADD_FAILURE() << "future resolved with a result, expected a ServeError";
  return ServeErrorKind::kBackendFailed;
}

bool wait_for_hung(int64_t n, int timeout_ms = 20000) {
  auto& injector = common::FaultInjector::instance();
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < until) {
    if (injector.hung_now() >= n) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override { common::FaultInjector::instance().reset(); }
  void TearDown() override { common::FaultInjector::instance().reset(); }
};

// Each worker gets its share of the cores, and the split is exported.
TEST_F(ServerTest, WorkersSplitTheCoresAndExportTheSplit) {
  const int global = ThreadPool::global().size();
  for (const int workers : {1, 4}) {
    SegmentationServer server(tiny_model(), "", base_options(workers));
    EXPECT_EQ(obs::MetricsRegistry::instance()
                  .gauge("serve.intra_op_threads")
                  .value(),
              std::max(1, global / workers))
        << workers << " workers";
  }
}

TEST_F(ServerTest, NominalLoadMatchesDirectServiceBitwise) {
  SegmentationServer server(tiny_model(), "", base_options(2));
  core::SegmentationService direct(tiny_model(), "");

  std::vector<std::future<core::SegmentationResult>> futures;
  futures.reserve(6);
  for (uint64_t s = 0; s < 6; ++s) {
    futures.push_back(server.submit(noise_volume(s)));
  }
  for (uint64_t s = 0; s < 6; ++s) {
    const core::SegmentationResult got = futures[s].get();
    const core::SegmentationResult want = direct.segment(noise_volume(s));
    ASSERT_EQ(got.probabilities.tensor().numel(),
              want.probabilities.tensor().numel());
    for (int64_t i = 0; i < got.probabilities.tensor().numel(); ++i) {
      ASSERT_EQ(got.probabilities.tensor()[i], want.probabilities.tensor()[i])
          << "subject " << s << " voxel " << i;
    }
    EXPECT_EQ(got.tumor_voxels, want.tumor_voxels);
  }

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, 6);
  EXPECT_EQ(stats.completed, 6);
  EXPECT_EQ(stats.shed, 0);
  EXPECT_EQ(stats.timeouts, 0);
  EXPECT_EQ(stats.errors, 0);
  EXPECT_EQ(stats.discarded, 0);
  EXPECT_EQ(server.health(), HealthState::kHealthy);
}

TEST_F(ServerTest, SubmitRejectsBadRequestsBeforeQueueing) {
  SegmentationServer server(tiny_model(), "", base_options(1));

  data::Volume wrong_channels(3, 8, 8, 8);
  try {
    (void)server.submit(std::move(wrong_channels));
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.kind(), ServeErrorKind::kBadInput);
  }

  RequestOptions bad_threshold;
  bad_threshold.threshold = 0.0F;
  try {
    (void)server.submit(noise_volume(0), bad_threshold);
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.kind(), ServeErrorKind::kBadInput);
  }

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, 0);
  EXPECT_EQ(stats.errors, 2);
}

TEST_F(ServerTest, DegenerateVolumesFailTypedWithoutTrippingBreaker) {
  SegmentationServer server(tiny_model(), "", base_options(1));
  // More bad inputs than the breaker's trip threshold: input problems
  // must never be mistaken for backend health problems.
  for (uint64_t s = 0; s < 4; ++s) {
    data::Volume v = noise_volume(s);
    v.at(0, 1, 2, 3) = std::numeric_limits<float>::quiet_NaN();
    auto fut = server.submit(std::move(v));
    EXPECT_EQ(failure_kind(fut), ServeErrorKind::kBadInput);
  }
  EXPECT_EQ(server.health(), HealthState::kHealthy);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.errors, 4);
  EXPECT_EQ(stats.breaker_trips, 0);

  // And a clean request still succeeds.
  EXPECT_GT(server.segment(noise_volume(9)).probabilities.tensor().numel(), 0);
}

TEST_F(ServerTest, QueueFullShedsWithTypedError) {
  auto& injector = common::FaultInjector::instance();
  ServeOptions options = base_options(1);
  options.queue_capacity = 2;
  SegmentationServer server(tiny_model(), "", options);

  // Park the single worker on the first request so the queue backs up.
  injector.arm_nth_call("serve.worker", 1);
  injector.set_action_hang("serve.worker");

  auto f1 = server.submit(noise_volume(1));
  ASSERT_TRUE(wait_for_hung(1));
  auto f2 = server.submit(noise_volume(2));
  auto f3 = server.submit(noise_volume(3));
  try {
    (void)server.submit(noise_volume(4));
    FAIL() << "expected kQueueFull";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.kind(), ServeErrorKind::kQueueFull);
  }

  injector.release_hangs();
  EXPECT_GT(f1.get().probabilities.tensor().numel(), 0);
  EXPECT_GT(f2.get().probabilities.tensor().numel(), 0);
  EXPECT_GT(f3.get().probabilities.tensor().numel(), 0);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, 3);
  EXPECT_EQ(stats.shed, 1);
  EXPECT_EQ(stats.completed, 3);
}

TEST_F(ServerTest, ReaperSettlesDeadlineExpiredWhileQueued) {
  auto& injector = common::FaultInjector::instance();
  SegmentationServer server(tiny_model(), "", base_options(1));

  // The only worker hangs on the first request; the second expires in
  // the queue and must be settled by the reaper, not the worker.
  injector.arm_nth_call("serve.worker", 1);
  injector.set_action_hang("serve.worker");
  auto f1 = server.submit(noise_volume(1));
  ASSERT_TRUE(wait_for_hung(1));

  RequestOptions deadline;
  deadline.deadline_ms = 100;
  auto f2 = server.submit(noise_volume(2), deadline);
  ASSERT_EQ(f2.wait_for(std::chrono::seconds(20)), std::future_status::ready)
      << "reaper failed to settle a queued request at its deadline";
  EXPECT_EQ(failure_kind(f2), ServeErrorKind::kDeadlineExceeded);

  injector.release_hangs();
  EXPECT_GT(f1.get().probabilities.tensor().numel(), 0);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.timeouts, 1);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.discarded, 0);  // settled-while-queued is skipped, not run
}

TEST_F(ServerTest, DeadlineExpiredMidInferenceAbandonsButWorkerSurvives) {
  auto& injector = common::FaultInjector::instance();
  SegmentationServer server(tiny_model(), "", base_options(1));

  // The first inference stalls 500ms inside the model; a 100ms deadline
  // expires mid-flight. The worker must abandon the request and live on.
  injector.arm_nth_call("serve.infer", 1);
  injector.set_action_delay("serve.infer", 500);
  RequestOptions deadline;
  deadline.deadline_ms = 100;
  auto slow = server.submit(noise_volume(1), deadline);
  EXPECT_EQ(failure_kind(slow), ServeErrorKind::kDeadlineExceeded);

  // Fault budget exhausted (max_fires defaults to 1): next request is
  // served by the same worker thread.
  EXPECT_GT(server.segment(noise_volume(2)).probabilities.tensor().numel(), 0);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.timeouts, 1);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(server.health(), HealthState::kHealthy);  // timeout != failure
}

TEST_F(ServerTest, WorkerCrashFailsOnlyThatRequest) {
  auto& injector = common::FaultInjector::instance();
  SegmentationServer server(tiny_model(), "", base_options(1));

  injector.arm_nth_call("serve.worker", 1);  // throws FaultInjected once
  auto doomed = server.submit(noise_volume(1));
  EXPECT_EQ(failure_kind(doomed), ServeErrorKind::kBackendFailed);

  EXPECT_GT(server.segment(noise_volume(2)).probabilities.tensor().numel(), 0);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.errors, 1);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(server.health(), HealthState::kHealthy);  // 1 < trip threshold
}

TEST_F(ServerTest, CorruptOutputIsCaughtAsBackendFailure) {
  auto& injector = common::FaultInjector::instance();
  SegmentationServer server(tiny_model(), "", base_options(1));

  injector.arm_nth_call("serve.infer.corrupt", 1);
  auto corrupted = server.submit(noise_volume(1));
  EXPECT_EQ(failure_kind(corrupted), ServeErrorKind::kBackendFailed);

  // Output validation must not let NaN probabilities poison later work.
  const core::SegmentationResult clean = server.segment(noise_volume(2));
  for (int64_t i = 0; i < clean.probabilities.tensor().numel(); ++i) {
    ASSERT_TRUE(std::isfinite(clean.probabilities.tensor()[i]));
  }
}

TEST_F(ServerTest, BreakerTripsShedsProbesAndRecovers) {
  auto& injector = common::FaultInjector::instance();
  ServeOptions options = base_options(1);
  options.breaker_trip_failures = 2;
  options.breaker_recovery_successes = 2;
  SegmentationServer server(tiny_model(), "", options);

  // Two consecutive backend crashes open the breaker.
  injector.arm_every_n("serve.worker", 1, /*max_fires=*/2);
  for (int i = 0; i < 2; ++i) {
    auto fut = server.submit(noise_volume(static_cast<uint64_t>(i)));
    EXPECT_EQ(failure_kind(fut), ServeErrorKind::kBackendFailed);
  }
  EXPECT_EQ(server.health(), HealthState::kDegraded);
  EXPECT_EQ(server.stats().breaker_trips, 1);

  // While degraded, exactly one probe is admitted; the rest shed.
  injector.arm_nth_call("serve.infer", 1);
  injector.set_action_hang("serve.infer");
  auto probe = server.submit(noise_volume(10));
  ASSERT_TRUE(wait_for_hung(1));
  try {
    (void)server.submit(noise_volume(11));
    FAIL() << "expected kShedding while probe in flight";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.kind(), ServeErrorKind::kShedding);
  }
  injector.release_hangs();
  EXPECT_GT(probe.get().probabilities.tensor().numel(), 0);
  EXPECT_EQ(server.health(), HealthState::kDegraded);  // 1 of 2 successes

  // Second successful probe closes the breaker.
  EXPECT_GT(server.segment(noise_volume(12)).probabilities.tensor().numel(),
            0);
  EXPECT_EQ(server.health(), HealthState::kHealthy);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.breaker_recoveries, 1);
  EXPECT_EQ(stats.shed, 1);
}

TEST_F(ServerTest, BreakerRecoveryRereadsElasticWorldSize) {
  auto& injector = common::FaultInjector::instance();
  auto& world_gauge =
      obs::MetricsRegistry::instance().gauge("train.elastic.world_size");

  // The co-located trainer is running at world 4 when the server boots.
  world_gauge.set(4.0);
  ServeOptions options = base_options(1);
  options.breaker_trip_failures = 2;
  options.breaker_recovery_successes = 1;
  SegmentationServer server(tiny_model(), "", options);
  EXPECT_EQ(server.stats().observed_world_size, 4);

  // The trainer shrinks (a rank died) while the breaker is tripping —
  // the stale boot-time observation must not survive the recovery.
  injector.arm_every_n("serve.worker", 1, /*max_fires=*/2);
  for (int i = 0; i < 2; ++i) {
    auto fut = server.submit(noise_volume(static_cast<uint64_t>(i)));
    EXPECT_EQ(failure_kind(fut), ServeErrorKind::kBackendFailed);
  }
  ASSERT_EQ(server.health(), HealthState::kDegraded);
  world_gauge.set(3.0);
  EXPECT_EQ(server.stats().observed_world_size, 4);  // not yet re-read

  // The successful probe closes the breaker and refreshes the view.
  EXPECT_GT(server.segment(noise_volume(10)).probabilities.tensor().numel(),
            0);
  ASSERT_EQ(server.health(), HealthState::kHealthy);
  EXPECT_EQ(server.stats().observed_world_size, 3);
  EXPECT_DOUBLE_EQ(obs::MetricsRegistry::instance()
                       .gauge("serve.observed_world_size")
                       .value(),
                   3.0);
  world_gauge.set(0.0);  // don't leak state into other tests
}

TEST_F(ServerTest, ShedsWhenPredictedWaitExceedsDeadline) {
  auto& injector = common::FaultInjector::instance();
  SegmentationServer server(tiny_model(), "", base_options(1));

  // Establish a latency estimate well above 1ms.
  injector.arm_nth_call("serve.infer", 1);
  injector.set_action_delay("serve.infer", 80);
  EXPECT_GT(server.segment(noise_volume(1)).probabilities.tensor().numel(), 0);

  RequestOptions hopeless;
  hopeless.deadline_ms = 1;
  try {
    (void)server.submit(noise_volume(2), hopeless);
    FAIL() << "expected kShedding on predicted deadline miss";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.kind(), ServeErrorKind::kShedding);
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.shed, 1);
  EXPECT_EQ(stats.timeouts, 0);  // shed at admission, not timed out
}

TEST_F(ServerTest, DrainCompletesInflightThenShedsNewArrivals) {
  auto& injector = common::FaultInjector::instance();
  SegmentationServer server(tiny_model(), "", base_options(2));

  injector.arm_every_n("serve.infer", 1, /*max_fires=*/3);
  injector.set_action_delay("serve.infer", 100);
  std::vector<std::future<core::SegmentationResult>> futures;
  for (uint64_t s = 0; s < 3; ++s) {
    futures.push_back(server.submit(noise_volume(s)));
  }
  server.drain();

  // Drain returned only after all admitted work settled.
  for (auto& fut : futures) {
    ASSERT_EQ(fut.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_GT(fut.get().probabilities.tensor().numel(), 0);
  }
  EXPECT_EQ(server.health(), HealthState::kDraining);
  try {
    (void)server.submit(noise_volume(5));
    FAIL() << "expected kShedding while draining";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.kind(), ServeErrorKind::kShedding);
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 3);
  EXPECT_EQ(stats.shed, 1);
}

TEST_F(ServerTest, OversizedVolumesServedViaSlidingWindowMatchDirect) {
  ServeOptions options = base_options(1);
  options.full_volume_voxel_budget = 1000;
  options.sliding_window.patch_depth = 8;
  options.sliding_window.patch_height = 8;
  options.sliding_window.patch_width = 8;
  options.sliding_window.halo = 12;
  SegmentationServer server(tiny_model(), "", options);

  const data::Volume big = noise_volume(21, 8, 20, 20);  // 3200 > budget
  const core::SegmentationResult served = server.segment(big);

  core::SegmentationService direct(tiny_model(), "");
  core::SegmentOptions direct_opts;
  direct_opts.full_volume_voxel_budget = options.full_volume_voxel_budget;
  direct_opts.sliding_window = options.sliding_window;
  const core::SegmentationResult want = direct.segment(big, direct_opts);

  ASSERT_EQ(served.probabilities.tensor().numel(),
            want.probabilities.tensor().numel());
  for (int64_t i = 0; i < served.probabilities.tensor().numel(); ++i) {
    ASSERT_EQ(served.probabilities.tensor()[i],
              want.probabilities.tensor()[i]);
  }
}

TEST_F(ServerTest, OptionsFromEnvReadKnobs) {
  ::setenv("DMIS_SERVE_WORKERS", "3", 1);
  ::setenv("DMIS_SERVE_QUEUE", "5", 1);
  ::setenv("DMIS_SERVE_DEADLINE_MS", "1234", 1);
  ::setenv("DMIS_SERVE_VOXEL_BUDGET", "99", 1);
  const ServeOptions options = ServeOptions::from_env();
  ::unsetenv("DMIS_SERVE_WORKERS");
  ::unsetenv("DMIS_SERVE_QUEUE");
  ::unsetenv("DMIS_SERVE_DEADLINE_MS");
  ::unsetenv("DMIS_SERVE_VOXEL_BUDGET");
  EXPECT_EQ(options.num_workers, 3);
  EXPECT_EQ(options.queue_capacity, 5);
  EXPECT_EQ(options.default_deadline_ms, 1234);
  EXPECT_EQ(options.full_volume_voxel_budget, 99);

  // Malformed values are rejected up front, naming the knob, instead of
  // being read as their numeric prefix ("1e6" -> 1) or failing later
  // under an option name.
  const std::pair<const char*, const char*> bad[] = {
      {"DMIS_SERVE_VOXEL_BUDGET", "1e6"},
      {"DMIS_SERVE_DEADLINE_MS", "5s"},
      {"DMIS_SERVE_WORKERS", "abc"},
      {"DMIS_SERVE_WORKERS", "0"},
      {"DMIS_SERVE_QUEUE", "-4"},
      {"DMIS_SERVE_DEADLINE_MS", "99999999999999999999"},
  };
  for (const auto& [name, value] : bad) {
    ::setenv(name, value, 1);
    try {
      (void)ServeOptions::from_env();
      ADD_FAILURE() << name << "=" << value << " was accepted";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
    ::unsetenv(name);
  }
}

TEST_F(ServerTest, ErrorKindNamesAreStable) {
  EXPECT_STREQ(serve_error_kind_name(ServeErrorKind::kDeadlineExceeded),
               "deadline_exceeded");
  EXPECT_STREQ(serve_error_kind_name(ServeErrorKind::kQueueFull),
               "queue_full");
  EXPECT_STREQ(serve_error_kind_name(ServeErrorKind::kShedding), "shedding");
  EXPECT_STREQ(serve_error_kind_name(ServeErrorKind::kBadInput), "bad_input");
  EXPECT_STREQ(serve_error_kind_name(ServeErrorKind::kBackendFailed),
               "backend_failed");
  EXPECT_STREQ(health_state_name(HealthState::kHealthy), "healthy");
  EXPECT_STREQ(health_state_name(HealthState::kDegraded), "degraded");
  EXPECT_STREQ(health_state_name(HealthState::kDraining), "draining");
  const ServeError err(ServeErrorKind::kQueueFull, "try later");
  EXPECT_EQ(err.kind(), ServeErrorKind::kQueueFull);
  EXPECT_NE(std::string(err.what()).find("queue_full"), std::string::npos);
}

}  // namespace
}  // namespace dmis::serve
