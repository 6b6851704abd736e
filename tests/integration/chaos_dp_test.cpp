// Chaos test for data-parallel failure semantics (the PR's acceptance
// gate): a 4-replica mirrored run loses one rank mid-step — crashed or
// hung — and must either abort cleanly with a typed comm error within
// the deadline (elastic off) or shrink to 3 ranks, restore from the
// step-consistent checkpoint, and finish with the same result as a
// fault-free 3-rank run (elastic on). Either way: no deadlock.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "common/check.hpp"
#include "common/fault_injector.hpp"
#include "tensor/rng.hpp"
#include "train/mirrored.hpp"

namespace dmis::train {
namespace {

std::vector<data::Example> make_examples(int64_t n, uint64_t seed) {
  std::vector<data::Example> out;
  Rng rng(seed);
  const int64_t S = 4;
  for (int64_t id = 0; id < n; ++id) {
    data::Example ex;
    ex.id = id;
    ex.image = NDArray(Shape{1, S, S, S});
    ex.label = NDArray(Shape{1, S, S, S});
    for (int64_t i = 0; i < ex.image.numel(); ++i) {
      ex.image[i] = static_cast<float>(rng.normal());
      ex.label[i] = rng.uniform() < 0.3 ? 1.0F : 0.0F;
    }
    out.push_back(std::move(ex));
  }
  return out;
}

nn::UNet3dOptions tiny_model() {
  nn::UNet3dOptions opts;
  opts.in_channels = 1;
  opts.base_filters = 2;
  opts.depth = 2;
  opts.seed = 23;
  opts.batch_norm = false;
  return opts;
}

std::vector<float> flat_params(nn::UNet3d& model) {
  std::vector<float> out;
  for (const nn::Param& p : model.params()) {
    out.insert(out.end(), p.value->data(),
               p.value->data() + p.value->numel());
  }
  return out;
}

MirroredOptions four_rank_options() {
  MirroredOptions mopt;
  mopt.num_replicas = 4;
  mopt.train.epochs = 2;
  mopt.train.lr = 1e-3;
  return mopt;
}

data::BatchStream make_stream() {
  return data::BatchStream(data::from_examples(make_examples(8, 17)), 4);
}

class ChaosDataParallelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    common::FaultInjector::instance().reset();
    dir_ = (std::filesystem::temp_directory_path() /
            ("dmis_chaos_dp_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
  }
  void TearDown() override {
    common::FaultInjector::instance().reset();
    std::filesystem::remove_all(dir_);
  }

  /// Fault-free 3-rank reference run on the same data and seeds.
  std::vector<float> reference_3rank(double* final_loss) {
    MirroredOptions mopt = four_rank_options();
    mopt.num_replicas = 3;
    MirroredStrategy reference(tiny_model(), mopt);
    data::BatchStream train = make_stream();
    const TrainReport report = reference.fit(train, nullptr);
    if (final_loss != nullptr) {
      *final_loss = report.history.back().train_loss;
    }
    return flat_params(reference.model());
  }

  std::string dir_;
};

// Rank 3 crashes on its first collective; elastic off. The whole fit()
// must surface a typed error promptly — no rank left blocked in the
// ring, no deadlock.
TEST_F(ChaosDataParallelTest, CrashWithElasticOffAbortsCleanly) {
  common::FaultInjector::instance().arm_nth_call("comm.all_reduce.r3", 1);
  MirroredStrategy mirrored(tiny_model(), four_rank_options());
  data::BatchStream train = make_stream();
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(mirrored.fit(train, nullptr), Error);
  const auto elapsed = std::chrono::duration_cast<std::chrono::seconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_LT(elapsed.count(), 60) << "fail-fast abort took too long";
  EXPECT_EQ(mirrored.recoveries(), 0);
}

// Rank 3 crashes on its first collective; elastic on. Training shrinks
// to 3 ranks, restores the step-0 checkpoint, rescales the lr, and must
// land exactly where a fault-free 3-rank run lands.
TEST_F(ChaosDataParallelTest, CrashWithElasticOnMatchesFaultFree3RankRun) {
  common::FaultInjector::instance().arm_nth_call("comm.all_reduce.r3", 1);
  MirroredOptions mopt = four_rank_options();
  mopt.elastic = true;
  mopt.elastic_dir = dir_;
  MirroredStrategy mirrored(tiny_model(), mopt);
  data::BatchStream train = make_stream();
  const TrainReport report = mirrored.fit(train, nullptr);

  EXPECT_EQ(mirrored.recoveries(), 1);
  EXPECT_EQ(mirrored.world_size(), 3);
  ASSERT_EQ(report.history.size(), 2U);

  common::FaultInjector::instance().reset();
  double ref_loss = 0.0;
  const std::vector<float> ref = reference_3rank(&ref_loss);
  const std::vector<float> got = flat_params(mirrored.model());
  ASSERT_EQ(got.size(), ref.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got[i], ref[i], 1e-6F) << "param element " << i;
  }
  EXPECT_NEAR(report.history.back().train_loss, ref_loss, 1e-6);
}

// Rank 3 hangs (doesn't crash) on its first collective; elastic on.
// Only the per-collective deadline can detect this: survivors time out,
// agree on the dead set, shrink, and continue. The hung rank eventually
// wakes, finds the group poisoned, and is fenced out of the agreement.
TEST_F(ChaosDataParallelTest, HangWithElasticOnRecoversViaDeadline) {
  auto& faults = common::FaultInjector::instance();
  faults.arm_nth_call("comm.all_reduce.r3", 1);
  faults.set_action_hang("comm.all_reduce.r3", /*auto_release_ms=*/3000);

  MirroredOptions mopt = four_rank_options();
  mopt.elastic = true;
  mopt.elastic_dir = dir_;
  mopt.comm_timeout_ms = 800;
  mopt.agree_grace_ms = 400;
  MirroredStrategy mirrored(tiny_model(), mopt);
  data::BatchStream train = make_stream();
  const TrainReport report = mirrored.fit(train, nullptr);

  EXPECT_EQ(mirrored.recoveries(), 1);
  EXPECT_EQ(mirrored.world_size(), 3);
  ASSERT_EQ(report.history.size(), 2U);
  for (const EpochStats& s : report.history) {
    EXPECT_TRUE(std::isfinite(s.train_loss));
  }

  // The hang fired before the ring moved any data, so the shrunken run
  // is arithmetically the fault-free 3-rank run here too.
  faults.reset();
  double ref_loss = 0.0;
  const std::vector<float> ref = reference_3rank(&ref_loss);
  const std::vector<float> got = flat_params(mirrored.model());
  ASSERT_EQ(got.size(), ref.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got[i], ref[i], 1e-6F) << "param element " << i;
  }
}

// Rank 3 hangs; elastic off. fit() must abort with a typed CommError
// once the deadline fires — bounded time, no deadlock.
TEST_F(ChaosDataParallelTest, HangWithElasticOffAbortsWithCommError) {
  auto& faults = common::FaultInjector::instance();
  faults.arm_nth_call("comm.all_reduce.r3", 1);
  faults.set_action_hang("comm.all_reduce.r3", /*auto_release_ms=*/2000);

  MirroredOptions mopt = four_rank_options();
  mopt.comm_timeout_ms = 500;
  MirroredStrategy mirrored(tiny_model(), mopt);
  data::BatchStream train = make_stream();
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(mirrored.fit(train, nullptr), comm::CommError);
  const auto elapsed = std::chrono::duration_cast<std::chrono::seconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_LT(elapsed.count(), 60) << "deadline abort took too long";
}

}  // namespace
}  // namespace dmis::train
