#include "comm/communicator.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/fault_injector.hpp"
#include "tensor/rng.hpp"

namespace dmis::comm {
namespace {

/// Runs `body(rank, comm)` on one thread per rank and joins.
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

TEST(CommunicatorTest, GroupConstruction) {
  auto comms = make_group(4);
  ASSERT_EQ(comms.size(), 4U);
  EXPECT_EQ(comms[2].rank(), 2);
  EXPECT_EQ(comms[2].size(), 4);
  EXPECT_THROW(make_group(0), InvalidArgument);
}

TEST(CommunicatorTest, BroadcastFromEveryRoot) {
  for (int root = 0; root < 3; ++root) {
    run_group(3, [root](int rank, Communicator& comm) {
      std::vector<float> buf(17, static_cast<float>(rank + 1));
      comm.broadcast(buf, root);
      for (float v : buf) EXPECT_FLOAT_EQ(v, static_cast<float>(root + 1));
    });
  }
}

TEST(CommunicatorTest, AllReduceSumSmall) {
  run_group(4, [](int rank, Communicator& comm) {
    std::vector<float> buf(3);
    for (size_t i = 0; i < buf.size(); ++i) {
      buf[i] = static_cast<float>(rank * 10 + static_cast<int>(i));
    }
    comm.all_reduce_sum(buf);
    // Sum over ranks r of (10r + i) = 10*(0+1+2+3) + 4i = 60 + 4i.
    for (size_t i = 0; i < buf.size(); ++i) {
      EXPECT_FLOAT_EQ(buf[i], 60.0F + 4.0F * static_cast<float>(i));
    }
  });
}

TEST(CommunicatorTest, AllReduceSingleRankIsIdentity) {
  run_group(1, [](int, Communicator& comm) {
    std::vector<float> buf{1.0F, 2.0F};
    comm.all_reduce_sum(buf);
    EXPECT_FLOAT_EQ(buf[0], 1.0F);
    EXPECT_FLOAT_EQ(buf[1], 2.0F);
  });
}

TEST(CommunicatorTest, AllReduceMeanAveragesGradients) {
  run_group(4, [](int rank, Communicator& comm) {
    std::vector<float> grad(5, static_cast<float>(rank));  // 0,1,2,3
    comm.all_reduce_sum(grad, 1.0F / static_cast<float>(comm.size()));
    for (float v : grad) EXPECT_FLOAT_EQ(v, 1.5F);
  });
}

// Property test: the ring allreduce must agree with a serial reduction
// for every group size and several buffer lengths, including lengths
// smaller than, equal to, and not divisible by the rank count.
class RingAllReduceProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RingAllReduceProperty, MatchesSerialReduction) {
  const int ranks = std::get<0>(GetParam());
  const int length = std::get<1>(GetParam());

  // Reference: serial sum over per-rank pseudo-random buffers.
  std::vector<std::vector<float>> inputs(static_cast<size_t>(ranks));
  std::vector<double> expected(static_cast<size_t>(length), 0.0);
  for (int r = 0; r < ranks; ++r) {
    dmis::Rng rng(static_cast<uint64_t>(r) * 977 + 13);
    auto& buf = inputs[static_cast<size_t>(r)];
    buf.resize(static_cast<size_t>(length));
    for (auto& v : buf) {
      v = static_cast<float>(rng.uniform(-1.0, 1.0));
      // Keep values on a coarse grid so float summation order cannot
      // change the result and the comparison can be exact.
      v = std::round(v * 64.0F) / 64.0F;
    }
    for (int i = 0; i < length; ++i) {
      expected[static_cast<size_t>(i)] += buf[static_cast<size_t>(i)];
    }
  }

  run_group(ranks, [&](int rank, Communicator& comm) {
    std::vector<float> buf = inputs[static_cast<size_t>(rank)];
    comm.all_reduce_sum(buf);
    for (int i = 0; i < length; ++i) {
      ASSERT_NEAR(buf[static_cast<size_t>(i)],
                  expected[static_cast<size_t>(i)], 1e-4)
          << "ranks=" << ranks << " len=" << length << " i=" << i
          << " rank=" << rank;
    }
  });
}

// Collective faults fire at entry, before the rank touches the
// rendezvous barrier. Arming probability 1.0 makes the whole group fail
// the same call, so nobody is left blocked — and because the barrier was
// never entered, the group stays usable once the fault is disarmed.
TEST(CommFaultTest, InjectedFaultFailsGroupWithoutDeadlock) {
  auto& faults = common::FaultInjector::instance();
  faults.reset();
  faults.arm_probability("comm.all_reduce", 1.0);

  constexpr int kRanks = 3;
  auto comms = make_group(kRanks);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < kRanks; ++r) {
    threads.emplace_back([&, r] {
      std::vector<float> buf(8, static_cast<float>(r + 1));
      try {
        comms[static_cast<size_t>(r)].all_reduce_sum(buf);
      } catch (const common::FaultInjected&) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), kRanks);
  EXPECT_EQ(faults.fires("comm.all_reduce"), kRanks);

  // Disarm and prove the group recovered: a clean allreduce works.
  faults.reset();
  threads.clear();
  for (int r = 0; r < kRanks; ++r) {
    threads.emplace_back([&, r] {
      std::vector<float> buf(8, static_cast<float>(r + 1));
      comms[static_cast<size_t>(r)].all_reduce_sum(buf);
      for (const float v : buf) EXPECT_FLOAT_EQ(v, 6.0F);  // 1+2+3
    });
  }
  for (auto& t : threads) t.join();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RingAllReduceProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 8),
                       ::testing::Values(1, 3, 8, 64, 1000)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return "ranks" + std::to_string(std::get<0>(info.param)) + "_len" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace dmis::comm
