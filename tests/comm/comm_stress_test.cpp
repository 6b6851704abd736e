// Concurrency stress for the collectives: multiple independent groups
// in flight, repeated collectives on one group, and mixed-operation
// sequences — the access patterns MirroredStrategy and the allreduce
// bench actually generate.
#include <gtest/gtest.h>

#include <numeric>
#include <thread>
#include <vector>

#include "comm/communicator.hpp"

namespace dmis::comm {
namespace {

TEST(CommStressTest, ManySequentialAllreducesStayExact) {
  constexpr int kRanks = 4;
  constexpr int kRounds = 200;
  auto comms = make_group(kRanks);
  std::vector<std::thread> threads;
  for (int r = 0; r < kRanks; ++r) {
    threads.emplace_back([&, r] {
      std::vector<float> buf(64);
      for (int round = 0; round < kRounds; ++round) {
        // Each round: rank contributes (round + rank); the sum over
        // ranks is kRanks*round + 0+1+2+3.
        std::fill(buf.begin(), buf.end(),
                  static_cast<float>(round + r));
        comms[static_cast<size_t>(r)].all_reduce_sum(buf);
        const float expect = static_cast<float>(kRanks * round + 6);
        for (float v : buf) ASSERT_FLOAT_EQ(v, expect);
      }
    });
  }
  for (auto& t : threads) t.join();
}

TEST(CommStressTest, IndependentGroupsDoNotInterfere) {
  // Two groups of different sizes run allreduces concurrently; each
  // must see only its own members' contributions.
  auto group_a = make_group(3);
  auto group_b = make_group(5);
  std::vector<std::thread> threads;

  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&, r] {
      for (int round = 0; round < 50; ++round) {
        std::vector<float> buf(16, 1.0F);
        group_a[static_cast<size_t>(r)].all_reduce_sum(buf);
        for (float v : buf) ASSERT_FLOAT_EQ(v, 3.0F);
      }
    });
  }
  for (int r = 0; r < 5; ++r) {
    threads.emplace_back([&, r] {
      for (int round = 0; round < 50; ++round) {
        std::vector<float> buf(16, 1.0F);
        group_b[static_cast<size_t>(r)].all_reduce_sum(buf);
        for (float v : buf) ASSERT_FLOAT_EQ(v, 5.0F);
      }
    });
  }
  for (auto& t : threads) t.join();
}

TEST(CommStressTest, MixedCollectiveSequence) {
  // The MirroredStrategy pattern: per "step", one allreduce per
  // parameter tensor (different sizes), then a broadcast.
  constexpr int kRanks = 3;
  auto comms = make_group(kRanks);
  const std::vector<size_t> tensor_sizes{872, 16, 1736, 16, 9};
  std::vector<std::thread> threads;
  for (int r = 0; r < kRanks; ++r) {
    threads.emplace_back([&, r] {
      Communicator& comm = comms[static_cast<size_t>(r)];
      for (int step = 0; step < 20; ++step) {
        for (size_t size : tensor_sizes) {
          std::vector<float> grad(size, static_cast<float>(r + 1));
          comm.all_reduce_sum(grad, 1.0F / kRanks);
          for (float v : grad) ASSERT_FLOAT_EQ(v, 2.0F);  // mean of 1,2,3
        }
        std::vector<float> flag(1, static_cast<float>(r));
        comm.broadcast(flag, 0);
        ASSERT_FLOAT_EQ(flag[0], 0.0F);
      }
    });
  }
  for (auto& t : threads) t.join();
}

TEST(CommStressTest, LargePayloadAllreduce) {
  // The real U-Net gradient payload size, several rounds.
  constexpr int kRanks = 2;
  constexpr size_t kPayload = 409657;
  auto comms = make_group(kRanks);
  std::vector<std::thread> threads;
  for (int r = 0; r < kRanks; ++r) {
    threads.emplace_back([&, r] {
      std::vector<float> buf(kPayload);
      for (int round = 0; round < 3; ++round) {
        std::iota(buf.begin(), buf.end(), static_cast<float>(r));
        comms[static_cast<size_t>(r)].all_reduce_sum(buf);
        // sum = (i + 0) + (i + 1) = 2i + 1.
        ASSERT_FLOAT_EQ(buf[0], 1.0F);
        ASSERT_FLOAT_EQ(buf[1000], 2001.0F);
      }
    });
  }
  for (auto& t : threads) t.join();
}

}  // namespace
}  // namespace dmis::comm
