// Differential parity fuzz over the chunked ring all-reduce: every
// world size 1-8, and tensor shapes the chunk geometry must survive —
// empty, single element, lengths not divisible by the rank count, and
// payloads larger than the default gradient bucket — all checked
// against a sequential rank-order reference reduction. Separate cases
// pin the bitwise properties the mirrored strategy relies on:
// determinism across runs for a fixed rank count, mean == sum * scale
// with the scale folded exactly once, and async == blocking.
#include "comm/communicator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <thread>
#include <vector>

#include "tensor/rng.hpp"

namespace dmis::comm {
namespace {

/// Per-rank pseudo-random inputs on a coarse 1/64 grid, so the serial
/// reference sum is exact regardless of accumulation order.
std::vector<std::vector<float>> make_inputs(int world, size_t len,
                                            uint64_t seed) {
  std::vector<std::vector<float>> inputs(static_cast<size_t>(world));
  for (int r = 0; r < world; ++r) {
    Rng rng(seed + static_cast<uint64_t>(r) * 977 + 13);
    auto& buf = inputs[static_cast<size_t>(r)];
    buf.resize(len);
    for (auto& v : buf) {
      v = static_cast<float>(rng.uniform(-1.0, 1.0));
      v = std::round(v * 64.0F) / 64.0F;
    }
  }
  return inputs;
}

/// Sequential rank-order reference: expected[i] = sum_r inputs[r][i].
std::vector<double> reference_sum(
    const std::vector<std::vector<float>>& inputs) {
  if (inputs.empty()) return {};
  std::vector<double> expected(inputs[0].size(), 0.0);
  for (const auto& buf : inputs) {
    for (size_t i = 0; i < buf.size(); ++i) expected[i] += buf[i];
  }
  return expected;
}

/// Runs one all_reduce_sum with `scale` (blocking, or async + wait) over
/// a fresh group and returns every rank's output buffer.
std::vector<std::vector<float>> run_all_reduce(int world, size_t len,
                                               uint64_t seed,
                                               float scale = 1.0F,
                                               bool async = false) {
  auto comms = make_group(world);
  auto bufs = make_inputs(world, len, seed);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(world));
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      auto& buf = bufs[static_cast<size_t>(r)];
      auto& comm = comms[static_cast<size_t>(r)];
      if (async) {
        comm.all_reduce_sum_async(buf, scale).wait();
      } else {
        comm.all_reduce_sum(buf, scale);
      }
    });
  }
  for (auto& t : threads) t.join();
  return bufs;
}

void expect_matches_reference(const std::vector<std::vector<float>>& outs,
                              const std::vector<double>& expected,
                              const std::string& what) {
  for (size_t r = 0; r < outs.size(); ++r) {
    ASSERT_EQ(outs[r].size(), expected.size()) << what << " rank " << r;
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_NEAR(outs[r][i], expected[i], 1e-4)
          << what << " rank=" << r << " i=" << i;
    }
  }
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

std::string case_name(int world, size_t len) {
  return "world=" + std::to_string(world) + " len=" + std::to_string(len);
}

// Every world size 1-8, edge-shaped buffers: empty, single element,
// fewer elements than ranks, and a length coprime with every world
// size.
TEST(AllReduceAlgoParity, MatchesSerialReferenceAcrossWorldsAndShapes) {
  for (int world = 1; world <= 8; ++world) {
    for (const size_t len : {size_t{0}, size_t{1}, size_t{7}, size_t{131}}) {
      const auto inputs = make_inputs(world, len, /*seed=*/91);
      const auto expected = reference_sum(inputs);
      const auto outs = run_all_reduce(world, len, /*seed=*/91);
      expect_matches_reference(outs, expected, case_name(world, len));
    }
  }
}

// Payloads past the 1 MiB gradient-bucket size (262,144 floats), with a
// length chosen to not divide by any world size used.
TEST(AllReduceAlgoParity, LargeBuffersBeyondBucketSize) {
  constexpr size_t kLen = 300001;  // > 1 MiB of floats, prime
  for (const int world : {4, 6}) {
    const auto inputs = make_inputs(world, kLen, /*seed=*/7);
    const auto expected = reference_sum(inputs);
    const auto outs = run_all_reduce(world, kLen, /*seed=*/7);
    expect_matches_reference(outs, expected, case_name(world, kLen));
  }
}

// For a fixed rank count the ring must be bitwise deterministic: two
// runs over identical inputs produce identical float bits on every
// rank (the mirrored strategy's replica-consistency invariant).
TEST(AllReduceAlgoParity, BitwiseDeterministicAcrossRuns) {
  const auto a = run_all_reduce(/*world=*/6, /*len=*/4097, /*seed=*/42);
  const auto b = run_all_reduce(/*world=*/6, /*len=*/4097, /*seed=*/42);
  for (size_t r = 0; r < a.size(); ++r) {
    EXPECT_TRUE(bitwise_equal(a[r], b[r])) << "rank " << r;
  }
  // All ranks end with the same bits — mirrored replicas stay mirrored.
  for (size_t r = 1; r < a.size(); ++r) {
    EXPECT_TRUE(bitwise_equal(a[0], a[r])) << "rank " << r << " vs rank 0";
  }
}

// A scaled all_reduce_sum (scale = 1/world, the gradient mean) must
// equal the unscaled sum followed by one scalar multiply, bit for bit:
// the ring folds the scale into the final accumulation of each element
// exactly once.
TEST(AllReduceAlgoParity, MeanIsSumScaledExactlyOnce) {
  for (int world = 1; world <= 8; ++world) {
    const float inv = 1.0F / static_cast<float>(world);
    const auto sum = run_all_reduce(world, /*len=*/513, /*seed=*/3);
    const auto mean = run_all_reduce(world, /*len=*/513, /*seed=*/3, inv);
    for (size_t r = 0; r < sum.size(); ++r) {
      std::vector<float> scaled = sum[r];
      for (float& v : scaled) v *= inv;
      EXPECT_TRUE(bitwise_equal(scaled, mean[r]))
          << case_name(world, 513) << " rank " << r;
    }
  }
}

// The async worker path runs the same ring through the same
// rendezvous, so it must produce the same bits as the blocking path,
// scaled or not.
TEST(AllReduceAlgoParity, AsyncPathMatchesBlockingBitwise) {
  for (int world = 1; world <= 8; ++world) {
    for (const float scale : {1.0F, 1.0F / static_cast<float>(world)}) {
      const auto blocking =
          run_all_reduce(world, /*len=*/2048, /*seed=*/11, scale);
      const auto async = run_all_reduce(world, /*len=*/2048, /*seed=*/11,
                                        scale, /*async=*/true);
      for (size_t r = 0; r < blocking.size(); ++r) {
        EXPECT_TRUE(bitwise_equal(blocking[r], async[r]))
            << case_name(world, 2048) << " scale=" << scale << " rank " << r;
      }
    }
  }
}

// Randomized sweep: (world, length) drawn from a fixed-seed generator,
// always compared to the serial reference. The first iteration pins
// the bucket-boundary straddle explicitly.
TEST(AllReduceAlgoParity, RandomizedFuzzAgainstReference) {
  std::mt19937 rng(1234);
  for (int iter = 0; iter < 32; ++iter) {
    const int world = 1 + static_cast<int>(rng() % 8);
    size_t len;
    if (iter == 0) {
      len = 262147;  // one past the 1 MiB bucket, and prime
    } else if (rng() % 2 == 0) {
      len = rng() % 96;
    } else {
      len = rng() % 300000;
    }
    const uint64_t seed = 1000 + static_cast<uint64_t>(iter);
    const auto inputs = make_inputs(world, len, seed);
    const auto expected = reference_sum(inputs);
    const auto outs = run_all_reduce(world, len, seed);
    expect_matches_reference(
        outs, expected,
        "iter=" + std::to_string(iter) + " " + case_name(world, len));
  }
}

}  // namespace
}  // namespace dmis::comm
