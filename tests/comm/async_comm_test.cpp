// Nonblocking collectives: correctness of the AsyncRequest/wait API,
// interleaving with blocking collectives on the same group (routed
// through the comm workers), out-of-order waits, group launches, and a
// comm-worker fault surfacing as a typed error instead of a hang. The
// whole file runs under TSan in tools/verify.sh.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <numeric>
#include <span>
#include <thread>
#include <vector>

#include "comm/communicator.hpp"
#include "common/fault_injector.hpp"
#include "obs/metrics.hpp"

namespace dmis::comm {
namespace {

void run_group(int size,
               const std::function<void(int, Communicator&)>& body) {
  auto comms = make_group(size);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(size));
  for (int r = 0; r < size; ++r) {
    threads.emplace_back([&, r] { body(r, comms[static_cast<size_t>(r)]); });
  }
  for (auto& t : threads) t.join();
}

class AsyncAllReduceRanks : public ::testing::TestWithParam<int> {};

TEST_P(AsyncAllReduceRanks, MatchesBlockingResult) {
  const int ranks = GetParam();
  run_group(ranks, [ranks](int rank, Communicator& comm) {
    std::vector<float> buf(129, static_cast<float>(rank + 1));
    AsyncRequest req = comm.all_reduce_sum_async(buf);
    req.wait();
    const float expect =
        static_cast<float>(ranks * (ranks + 1)) / 2.0F;  // 1+2+...+n
    for (float v : buf) ASSERT_FLOAT_EQ(v, expect);
    EXPECT_TRUE(req.done());
  });
}

TEST_P(AsyncAllReduceRanks, InterleavedAsyncAndBlockingCollectives) {
  const int ranks = GetParam();
  run_group(ranks, [ranks](int rank, Communicator& comm) {
    for (int round = 0; round < 10; ++round) {
      // async -> blocking allreduce -> blocking broadcast -> wait: the
      // blocking calls must serialize behind the in-flight async op on
      // this rank's worker queue or the barriers would cross-match.
      std::vector<float> a(57, static_cast<float>(rank));
      AsyncRequest req = comm.all_reduce_sum_async(a);

      std::vector<float> b(13, 1.0F);
      comm.all_reduce_sum(b, 1.0F / static_cast<float>(ranks));
      for (float v : b) ASSERT_FLOAT_EQ(v, 1.0F);

      std::vector<float> c(5, static_cast<float>(rank + round));
      comm.broadcast(c, round % ranks);
      for (float v : c) {
        ASSERT_FLOAT_EQ(v, static_cast<float>(round % ranks + round));
      }

      req.wait();
      const float expect =
          static_cast<float>(ranks * (ranks - 1)) / 2.0F;  // 0+1+...+n-1
      for (float v : a) ASSERT_FLOAT_EQ(v, expect);
    }
  });
}

TEST_P(AsyncAllReduceRanks, FusedScaleMatchesSumThenScale) {
  // The scale parameter rides the ring (one multiply as each chunk's
  // reduction completes) — bitwise identical to summing and scaling in
  // a separate pass, the invariant GradBucketer's unpack relies on.
  const int ranks = GetParam();
  const float scale = 0.25F;
  run_group(ranks, [scale](int rank, Communicator& comm) {
    std::vector<float> fused(301);
    std::iota(fused.begin(), fused.end(), static_cast<float>(rank));
    std::vector<float> plain = fused;

    AsyncRequest req = comm.all_reduce_sum_async(
        std::span<float>(fused), scale);
    req.wait();
    AsyncRequest req2 = comm.all_reduce_sum_async(std::span<float>(plain));
    req2.wait();
    for (size_t i = 0; i < plain.size(); ++i) {
      ASSERT_EQ(fused[i], plain[i] * scale) << "elem " << i;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Sweep, AsyncAllReduceRanks,
                         ::testing::Values(1, 2, 3, 4, 5, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "ranks" + std::to_string(info.param);
                         });

TEST(AsyncCommTest, OutOfOrderWait) {
  run_group(3, [](int rank, Communicator& comm) {
    std::vector<float> a(8, 1.0F), b(16, 2.0F), c(24, 3.0F);
    AsyncRequest ra = comm.all_reduce_sum_async(a);
    AsyncRequest rb = comm.all_reduce_sum_async(b);
    AsyncRequest rc = comm.all_reduce_sum_async(c);
    (void)rank;
    rc.wait();  // waits in reverse submission order
    ra.wait();
    rb.wait();
    for (float v : a) ASSERT_FLOAT_EQ(v, 3.0F);
    for (float v : b) ASSERT_FLOAT_EQ(v, 6.0F);
    for (float v : c) ASSERT_FLOAT_EQ(v, 9.0F);
  });
}

TEST(AsyncCommTest, ManyRequestsInFlightStayExact) {
  constexpr int kRanks = 4;
  constexpr int kRounds = 50;
  constexpr int kInFlight = 6;
  run_group(kRanks, [](int rank, Communicator& comm) {
    const std::vector<size_t> sizes{872, 16, 1736, 3, 64, 409};
    for (int round = 0; round < kRounds; ++round) {
      std::vector<std::vector<float>> bufs;
      std::vector<AsyncRequest> reqs;
      for (int k = 0; k < kInFlight; ++k) {
        bufs.emplace_back(sizes[static_cast<size_t>(k)],
                          static_cast<float>(rank + k));
        reqs.push_back(comm.all_reduce_sum_async(bufs.back()));
      }
      for (AsyncRequest& req : reqs) req.wait();
      for (int k = 0; k < kInFlight; ++k) {
        // Sum over ranks r of (r + k) = (0+1+2+3) + 4k.
        const float expect = 6.0F + 4.0F * static_cast<float>(k);
        for (float v : bufs[static_cast<size_t>(k)]) {
          ASSERT_FLOAT_EQ(v, expect);
        }
      }
    }
  });
}

TEST(AsyncCommTest, InflightGaugeReturnsToZeroAfterDrain) {
  run_group(2, [](int, Communicator& comm) {
    std::vector<float> buf(64, 1.0F);
    comm.all_reduce_sum_async(buf).wait();
  });
  const auto& gauge =
      obs::MetricsRegistry::instance().gauge("comm.async.inflight");
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
}

// A fault inside a comm-worker task must surface from wait() as the
// typed FaultInjected error on every rank, leave nobody blocked (the
// point fires before the barrier is touched, like the sync path), and
// leave the group reusable once disarmed.
TEST(AsyncCommFaultTest, WorkerFaultSurfacesAsTypedErrorNotHang) {
  auto& faults = common::FaultInjector::instance();
  faults.reset();
  faults.arm_probability("comm.all_reduce", 1.0);

  constexpr int kRanks = 3;
  std::atomic<int> failures{0};
  auto comms = make_group(kRanks);
  std::vector<std::thread> threads;
  for (int r = 0; r < kRanks; ++r) {
    threads.emplace_back([&, r] {
      std::vector<float> buf(128, static_cast<float>(r + 1));
      AsyncRequest req =
          comms[static_cast<size_t>(r)].all_reduce_sum_async(buf);
      try {
        req.wait();
      } catch (const common::FaultInjected&) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), kRanks);
  EXPECT_EQ(faults.fires("comm.all_reduce"), kRanks);

  // Disarm and prove the workers (and the barrier) recovered.
  faults.reset();
  threads.clear();
  for (int r = 0; r < kRanks; ++r) {
    threads.emplace_back([&, r] {
      std::vector<float> buf(128, static_cast<float>(r + 1));
      comms[static_cast<size_t>(r)].all_reduce_sum_async(buf).wait();
      for (const float v : buf) EXPECT_FLOAT_EQ(v, 6.0F);  // 1+2+3
    });
  }
  for (auto& t : threads) t.join();
}

TEST(AsyncCommTest, EmptyRequestIsInvalidAndWaitThrows) {
  AsyncRequest req;
  EXPECT_FALSE(req.valid());
  EXPECT_THROW(req.wait(), InvalidArgument);
}

TEST(AsyncCommTest, DroppingGroupWithUnwaitedRequestsCompletesThem) {
  // Submit on every rank, never wait, destroy the group: the context
  // destructor must drain the worker pools (the matching submissions exist on
  // all ranks) instead of hanging or crashing.
  std::vector<std::vector<float>> bufs(3, std::vector<float>(32, 1.0F));
  {
    auto comms = make_group(3);
    std::vector<std::thread> threads;
    for (int r = 0; r < 3; ++r) {
      threads.emplace_back([&, r] {
        comms[static_cast<size_t>(r)].all_reduce_sum_async(
            bufs[static_cast<size_t>(r)]);
      });
    }
    for (auto& t : threads) t.join();
  }  // group (and context) destroyed here
  for (const auto& buf : bufs) {
    for (float v : buf) EXPECT_FLOAT_EQ(v, 3.0F);
  }
}

TEST(AsyncCommTest, TeardownRightAfterLastWaitNeverHangs) {
  // The context destructor races its idle comm worker back into its
  // queue wait: the pool's stop flag must be published under the queue
  // mutex, or a worker that has just found its queue empty misses the
  // wakeup and the destructor's join() hangs until the ctest timeout.
  for (int cycle = 0; cycle < 2000; ++cycle) {
    auto comms = make_group(1);
    std::vector<float> buf(8, 1.0F);
    comms[0].all_reduce_sum_async(buf).wait();
  }
}

}  // namespace
}  // namespace dmis::comm
