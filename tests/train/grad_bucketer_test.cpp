// GradBucketer: bucket layout, parity of the fused bucketed allreduce
// against the per-tensor scale/allreduce/scale triple pass, bitwise
// determinism for a fixed layout, idle-rank flush, and the
// DMIS_BUCKET_BYTES override (which, like the option, rejects 0).
#include "train/grad_bucketer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <thread>
#include <vector>

#include "comm/communicator.hpp"
#include "common/check.hpp"
#include "common/fault_injector.hpp"
#include "tensor/rng.hpp"
#include "train/mirrored.hpp"

namespace dmis::train {
namespace {

/// A fake "model": named gradient tensors of the given sizes.
struct FakeParams {
  explicit FakeParams(const std::vector<int64_t>& sizes, uint64_t seed) {
    Rng rng(seed);
    values.reserve(sizes.size());
    grads.reserve(sizes.size());
    for (size_t i = 0; i < sizes.size(); ++i) {
      values.emplace_back(Shape{sizes[i]});
      grads.emplace_back(Shape{sizes[i]});
      for (int64_t k = 0; k < grads.back().numel(); ++k) {
        grads.back()[k] = static_cast<float>(rng.uniform(-1.0, 1.0));
      }
    }
    for (size_t i = 0; i < sizes.size(); ++i) {
      params.push_back(nn::Param{"p" + std::to_string(i), &values[i],
                                 &grads[i]});
    }
  }
  std::vector<NDArray> values;
  std::vector<NDArray> grads;
  std::vector<nn::Param> params;
};

void run_ranks(int ranks,
               const std::function<void(int, comm::Communicator&)>& body) {
  auto comms = comm::make_group(ranks);
  std::vector<std::thread> threads;
  for (int r = 0; r < ranks; ++r) {
    threads.emplace_back([&, r] { body(r, comms[static_cast<size_t>(r)]); });
  }
  for (auto& t : threads) t.join();
}

TEST(GradBucketerTest, LayoutPacksReverseRegistrationOrderUnderCap) {
  FakeParams fp({10, 20, 30, 40, 5}, 1);
  auto comms = comm::make_group(1);
  // Cap of 50 floats = 200 bytes.
  GradBucketer bucketer(fp.params, comms[0], 200);
  const auto layout = bucketer.layout();
  // Reverse order: p4(5), p3(40) fit in bucket 0 (45 floats); p2(30),
  // p1(20) fill bucket 1 (50 exactly); p0(10) overflows to bucket 2.
  ASSERT_EQ(layout.size(), 3U);
  EXPECT_EQ(layout[0], (std::vector<std::string>{"p4", "p3"}));
  EXPECT_EQ(layout[1], (std::vector<std::string>{"p2", "p1"}));
  EXPECT_EQ(layout[2], (std::vector<std::string>{"p0"}));
}

TEST(GradBucketerTest, OversizedParameterGetsDirectBucket) {
  FakeParams fp({1000, 2, 3}, 2);
  auto comms = comm::make_group(1);
  GradBucketer bucketer(fp.params, comms[0], 64);  // 16-float cap
  const auto layout = bucketer.layout();
  ASSERT_EQ(layout.size(), 2U);
  EXPECT_EQ(layout[0], (std::vector<std::string>{"p2", "p1"}));
  EXPECT_EQ(layout[1], (std::vector<std::string>{"p0"}));
  // p0 crosses the direct threshold: reduced in place, never packed.
  EXPECT_EQ(bucketer.num_direct(), 1U);
}

TEST(GradBucketerTest, DirectAndPackedBucketsOrderedByCompletion) {
  // Registration [p0..p3] = floats {3000, 10, 4000, 20}; with a 1 KiB
  // cap the 256-float direct threshold sends p0/p2 in place while p3/p1
  // share one packed bucket that spans across them. Launch order is the
  // reverse-walk position of each bucket's LAST tensor: p2 completes
  // first, then the packed pair (at p1), then p0.
  FakeParams fp({3000, 10, 4000, 20}, 5);
  auto comms = comm::make_group(1);
  GradBucketer bucketer(fp.params, comms[0], 1024);
  const auto layout = bucketer.layout();
  ASSERT_EQ(layout.size(), 3U);
  EXPECT_EQ(layout[0], (std::vector<std::string>{"p2"}));
  EXPECT_EQ(layout[1], (std::vector<std::string>{"p3", "p1"}));
  EXPECT_EQ(layout[2], (std::vector<std::string>{"p0"}));
  EXPECT_EQ(bucketer.num_direct(), 2U);
}

TEST(GradBucketerTest, OutOfOrderReadinessStillLaunchesInLayoutOrder) {
  // The hook delivers each node's params in registration order (weight,
  // then bias) while the layout interleaves them in reverse — so a
  // direct weight bucket can COMPLETE before an earlier-layout packed
  // bucket. A ready-driven rank must hold it and still submit in layout
  // order, or it deadlocks/corrupts against an idle rank that goes
  // straight to flush(). Registration: w1, b1, w2, b2.
  const std::vector<int64_t> sizes{20000, 8, 20000, 8};
  const float inv = 0.5F;

  std::vector<FakeParams> ref;
  for (int r = 0; r < 2; ++r) ref.emplace_back(sizes, 60 + r);
  run_ranks(2, [&](int r, comm::Communicator& comm) {
    for (nn::Param& p : ref[static_cast<size_t>(r)].params) {
      comm.all_reduce_sum(p.grad->span());
      p.grad->scale_(inv);
    }
  });

  std::vector<FakeParams> fused;
  for (int r = 0; r < 2; ++r) fused.emplace_back(sizes, 60 + r);
  run_ranks(2, [&](int r, comm::Communicator& comm) {
    auto& fp = fused[static_cast<size_t>(r)];
    GradBucketer bucketer(fp.params, comm, 1024);
    bucketer.begin_step(1.0F, inv);
    if (r == 0) {
      // Hook order: node 2 (w2, b2), then node 1 (w1, b1).
      bucketer.on_grad_ready(fp.params[2]);
      bucketer.on_grad_ready(fp.params[3]);
      bucketer.on_grad_ready(fp.params[0]);
      bucketer.on_grad_ready(fp.params[1]);
    }
    bucketer.flush();
    bucketer.wait_all();
  });

  for (int r = 0; r < 2; ++r) {
    for (size_t i = 0; i < sizes.size(); ++i) {
      const NDArray& a = ref[static_cast<size_t>(r)].grads[i];
      const NDArray& b = fused[static_cast<size_t>(r)].grads[i];
      for (int64_t k = 0; k < a.numel(); ++k) {
        ASSERT_NEAR(a[k], b[k], 1e-6F) << "rank=" << r << " tensor=" << i
                                       << " elem=" << k;
      }
    }
  }
}

TEST(GradBucketerTest, FiresBucketsEagerlyAsGradientsArrive) {
  FakeParams fp({8, 8, 8, 8}, 3);
  auto comms = comm::make_group(1);
  GradBucketer bucketer(fp.params, comms[0], 2 * 8 * sizeof(float));
  ASSERT_EQ(bucketer.num_buckets(), 2U);
  bucketer.begin_step(1.0F, 1.0F);
  EXPECT_EQ(bucketer.buckets_fired(), 0U);
  bucketer.on_grad_ready(fp.params[3]);
  EXPECT_EQ(bucketer.buckets_fired(), 0U);  // bucket 0 half full
  bucketer.on_grad_ready(fp.params[2]);
  EXPECT_EQ(bucketer.buckets_fired(), 1U);  // bucket 0 complete -> fired
  EXPECT_GE(bucketer.first_fire_us(), 0);
  bucketer.flush();
  EXPECT_EQ(bucketer.buckets_fired(), 2U);
  bucketer.wait_all();
}

// The acceptance gate: the fused bucketed path must match the legacy
// per-tensor scale_/all_reduce_sum/scale_ pass within 1e-6 on seeded
// 2- and 4-rank steps, U-Net-ish ragged tensor sizes included.
class BucketedParity : public ::testing::TestWithParam<int> {};

TEST_P(BucketedParity, MatchesPerTensorTriplePass) {
  const int ranks = GetParam();
  const std::vector<int64_t> sizes{872, 8, 16, 1736, 16, 16, 3457, 9, 128};
  const auto weight = [](int r) { return static_cast<float>(r % 3); };
  const float inv_total = 1.0F / 7.0F;

  // Reference: the old triple pass, run on a fresh group.
  std::vector<FakeParams> ref;
  ref.reserve(static_cast<size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    ref.emplace_back(sizes, static_cast<uint64_t>(100 + r));
  }
  run_ranks(ranks, [&](int r, comm::Communicator& comm) {
    for (nn::Param& p : ref[static_cast<size_t>(r)].params) {
      p.grad->scale_(weight(r));
      comm.all_reduce_sum(p.grad->span());
      p.grad->scale_(inv_total);
    }
  });

  // Bucketed path over identical inputs (1 KiB cap -> several buckets).
  std::vector<FakeParams> fused;
  fused.reserve(static_cast<size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    fused.emplace_back(sizes, static_cast<uint64_t>(100 + r));
  }
  run_ranks(ranks, [&](int r, comm::Communicator& comm) {
    GradBucketer bucketer(fused[static_cast<size_t>(r)].params, comm, 1024);
    bucketer.begin_step(weight(r), inv_total);
    bucketer.flush();
    bucketer.wait_all();
  });

  for (int r = 0; r < ranks; ++r) {
    for (size_t i = 0; i < sizes.size(); ++i) {
      const NDArray& a = ref[static_cast<size_t>(r)].grads[i];
      const NDArray& b = fused[static_cast<size_t>(r)].grads[i];
      for (int64_t k = 0; k < a.numel(); ++k) {
        ASSERT_NEAR(a[k], b[k], 1e-6F)
            << "ranks=" << ranks << " rank=" << r << " tensor=" << i
            << " elem=" << k;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BucketedParity, ::testing::Values(2, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "ranks" + std::to_string(info.param);
                         });

TEST(GradBucketerTest, BitwiseDeterministicAcrossRuns) {
  const std::vector<int64_t> sizes{300, 7, 450, 21};
  const auto run_once = [&] {
    std::vector<FakeParams> fps;
    for (int r = 0; r < 3; ++r) {
      fps.emplace_back(sizes, static_cast<uint64_t>(7 + r));
    }
    run_ranks(3, [&](int r, comm::Communicator& comm) {
      GradBucketer bucketer(fps[static_cast<size_t>(r)].params, comm, 1024);
      bucketer.begin_step(1.0F, 1.0F / 3.0F);
      // Ready-driven on rank 0, flush-driven elsewhere: launch order is
      // layout order either way, so results must still be bitwise equal.
      if (r == 0) {
        for (size_t i = sizes.size(); i-- > 0;) {
          bucketer.on_grad_ready(fps[0].params[i]);
        }
      }
      bucketer.flush();
      bucketer.wait_all();
    });
    std::vector<float> out;
    for (const NDArray& g : fps[0].grads) {
      out.insert(out.end(), g.data(), g.data() + g.numel());
    }
    return out;
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]) << i;
}

TEST(GradBucketerTest, IdleRankContributesZeroWeightGradients) {
  // Rank 1 is "idle": weight 0, no ready marks, straight to flush —
  // the result must be rank 0's gradients weighted 2/2.
  const std::vector<int64_t> sizes{64, 8};
  std::vector<FakeParams> fps;
  fps.emplace_back(sizes, 42);
  fps.emplace_back(sizes, 43);
  FakeParams expect(sizes, 42);
  run_ranks(2, [&](int r, comm::Communicator& comm) {
    GradBucketer bucketer(fps[static_cast<size_t>(r)].params, comm, 1 << 20);
    bucketer.begin_step(r == 0 ? 2.0F : 0.0F, 0.5F);
    bucketer.flush();
    bucketer.wait_all();
  });
  for (size_t i = 0; i < sizes.size(); ++i) {
    for (int64_t k = 0; k < expect.grads[i].numel(); ++k) {
      ASSERT_NEAR(fps[0].grads[i][k], expect.grads[i][k], 1e-6F);
      ASSERT_NEAR(fps[1].grads[i][k], expect.grads[i][k], 1e-6F);
    }
  }
}

TEST(GradBucketerTest, EnvOverridesConfiguredBucketBytes) {
  ASSERT_EQ(unsetenv("DMIS_BUCKET_BYTES"), 0);
  EXPECT_EQ(GradBucketer::effective_bucket_bytes(123), 123U);
  ASSERT_EQ(setenv("DMIS_BUCKET_BYTES", "4096", 1), 0);
  EXPECT_EQ(GradBucketer::effective_bucket_bytes(123), 4096U);
  ASSERT_EQ(setenv("DMIS_BUCKET_BYTES", "0", 1), 0);
  EXPECT_THROW(GradBucketer::effective_bucket_bytes(123), InvalidArgument);
  ASSERT_EQ(setenv("DMIS_BUCKET_BYTES", "not-bytes", 1), 0);
  EXPECT_THROW(GradBucketer::effective_bucket_bytes(123), InvalidArgument);
  ASSERT_EQ(unsetenv("DMIS_BUCKET_BYTES"), 0);
}

TEST(GradBucketerTest, RejectsZeroBucketBytes) {
  FakeParams fp({4}, 9);
  auto comms = comm::make_group(1);
  EXPECT_THROW(GradBucketer(fp.params, comms[0], 0), InvalidArgument);
  // Zero is no longer a mode switch: neither the option nor the env
  // knob can select an unbucketed sync.
  ASSERT_EQ(unsetenv("DMIS_BUCKET_BYTES"), 0);
  EXPECT_THROW(GradBucketer::effective_bucket_bytes(0), InvalidArgument);
  MirroredOptions mopt;
  mopt.bucket_bytes = 0;
  nn::UNet3dOptions model;
  model.base_filters = 2;
  model.depth = 2;
  EXPECT_THROW(MirroredStrategy(model, mopt), InvalidArgument);
}

}  // namespace
}  // namespace dmis::train
