// Chaos tests for elastic scale-UP: a 4-replica mirrored run loses a
// rank mid-epoch, continues shrunk to 3, re-admits the returning rank
// at the next epoch boundary (request_rejoin() counts it; the boundary
// appends the replica and broadcasts rank 0's state), and finishes at
// world 4 with weights matching a fault-free 4-rank run to 1e-6. Also
// covered: the kill-rejoin-kill double fault, a slow epoch boundary
// (re-admission must not depend on how long validation took), and the
// tagged flight-recorder dumps on both transitions.
//
// Equivalence math: gradients are combined as a sample-count-weighted
// average, so the averaged gradient is world-size-invariant for the
// same global batch. With scale_lr=false (the lr would otherwise
// differ 3x vs 4x during the shrunk segment), the shrunken segment is
// arithmetically identical to the 4-rank run and the gate is 1e-6.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injector.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
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

/// Validation source that stalls on the first next() after each
/// reset() (and on the very first one): a slow epoch boundary.
class SlowFirstExampleStream : public data::ExampleStream {
 public:
  SlowFirstExampleStream(std::vector<data::Example> examples,
                         std::chrono::milliseconds stall)
      : inner_(data::from_examples(std::move(examples))), stall_(stall) {}

  std::optional<data::Example> next() override {
    if (stall_next_) {
      stall_next_ = false;
      std::this_thread::sleep_for(stall_);
    }
    return inner_->next();
  }

  void reset() override {
    inner_->reset();
    stall_next_ = true;
  }

 private:
  data::StreamPtr inner_;
  std::chrono::milliseconds stall_;
  bool stall_next_ = true;
};

data::BatchStream make_stream() {
  return data::BatchStream(data::from_examples(make_examples(8, 17)), 4);
}

/// 4 replicas, 2 epochs, elastic. scale_lr=false so the shrunk segment
/// trains at the same rate as the reference (see file comment).
MirroredOptions grow_options(const std::string& dir) {
  MirroredOptions mopt;
  mopt.num_replicas = 4;
  mopt.train.epochs = 2;
  mopt.train.lr = 1e-3;
  mopt.scale_lr = false;
  mopt.elastic = true;
  mopt.elastic_dir = dir;
  return mopt;
}

/// Kill rank 3's nth allreduce with its rejoin pre-scheduled — the
/// node dies and its replacement is already knocking.
void arm_kill_with_rejoin(MirroredStrategy& mirrored, int64_t max_fires = 1) {
  auto& faults = common::FaultInjector::instance();
  faults.arm_nth_call("comm.all_reduce.r3", 1, max_fires);
  faults.set_action_restart("comm.all_reduce.r3",
                            [&mirrored] { mirrored.request_rejoin(); });
}

class ChaosGrowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    common::FaultInjector::instance().reset();
    dir_ = (std::filesystem::temp_directory_path() /
            ("dmis_chaos_grow_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
  }
  void TearDown() override {
    common::FaultInjector::instance().reset();
    obs::FlightRecorder::instance().configure("");
    std::filesystem::remove_all(dir_);
  }

  /// Fault-free 4-rank reference on the same data, seeds, and options
  /// (its own checkpoint dir so it never reads the chaos run's state).
  std::vector<float> reference_4rank(MirroredOptions mopt,
                                     double* final_loss) {
    common::FaultInjector::instance().reset();
    mopt.elastic_dir = dir_ + "_ref";
    MirroredStrategy reference(tiny_model(), mopt);
    data::BatchStream train = make_stream();
    const TrainReport report = reference.fit(train, nullptr);
    if (final_loss != nullptr) {
      *final_loss = report.history.back().train_loss;
    }
    std::filesystem::remove_all(dir_ + "_ref");
    return flat_params(reference.model());
  }

  std::string dir_;
};

// The headline gate: rank 3 dies on its first collective (rejoin
// pre-filed), the run continues shrunk to 3, re-admits at the epoch
// boundary, and finishes at world 4 matching the fault-free 4-rank run.
TEST_F(ChaosGrowTest, KillRejoinFinishesAtFullWorldMatchingFaultFreeRun) {
  MirroredOptions mopt = grow_options(dir_);
  MirroredStrategy mirrored(tiny_model(), mopt);
  arm_kill_with_rejoin(mirrored);
  data::BatchStream train = make_stream();
  const TrainReport report = mirrored.fit(train, nullptr);

  EXPECT_EQ(mirrored.recoveries(), 1);
  EXPECT_EQ(mirrored.grows(), 1);
  EXPECT_EQ(mirrored.world_size(), 4);
  ASSERT_EQ(report.history.size(), 2U);
  // The world-size gauge (what /healthz and the telemetry exporter
  // serve) must track the grow, not stay at the shrunken value.
  EXPECT_DOUBLE_EQ(obs::MetricsRegistry::instance()
                       .gauge("train.elastic.world_size")
                       .value(),
                   4.0);

  double ref_loss = 0.0;
  const std::vector<float> ref = reference_4rank(mopt, &ref_loss);
  const std::vector<float> got = flat_params(mirrored.model());
  ASSERT_EQ(got.size(), ref.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got[i], ref[i], 1e-6F) << "param element " << i;
  }
  EXPECT_NEAR(report.history.back().train_loss, ref_loss, 1e-6);
}

// All replicas must agree after the grow: the broadcast reaches the
// joiner AND every survivor, so replica 3 (the re-admitted rank) ends
// bit-identical to replica 0.
TEST_F(ChaosGrowTest, JoinerReplicaIsBitIdenticalToSurvivors) {
  MirroredOptions mopt = grow_options(dir_);
  MirroredStrategy mirrored(tiny_model(), mopt);
  arm_kill_with_rejoin(mirrored);
  data::BatchStream train = make_stream();
  (void)mirrored.fit(train, nullptr);
  ASSERT_EQ(mirrored.world_size(), 4);
  const std::vector<float> rank0 = flat_params(mirrored.model());
  const std::vector<float> rank3 = flat_params(mirrored.replica(3));
  ASSERT_EQ(rank0.size(), rank3.size());
  for (size_t i = 0; i < rank0.size(); ++i) {
    ASSERT_EQ(rank0[i], rank3[i]) << "param element " << i;
  }
}

// Double fault: kill rank 3 in epoch 0, re-admit it at the boundary,
// kill it AGAIN on its first post-rejoin collective in epoch 1, and
// re-admit once more. Two shrinks, two grows, and the final weights
// still match the fault-free run (the fire budget of 2 on a cumulative
// call counter is what schedules the second kill).
TEST_F(ChaosGrowTest, KillRejoinKillDoubleFaultStillConverges) {
  MirroredOptions mopt = grow_options(dir_);
  mopt.train.epochs = 3;  // epoch 2 needs a boundary to re-admit after
  MirroredStrategy mirrored(tiny_model(), mopt);
  arm_kill_with_rejoin(mirrored, /*max_fires=*/2);
  data::BatchStream train = make_stream();
  const TrainReport report = mirrored.fit(train, nullptr);

  EXPECT_EQ(mirrored.recoveries(), 2);
  EXPECT_EQ(mirrored.grows(), 2);
  EXPECT_EQ(mirrored.world_size(), 4);
  ASSERT_EQ(report.history.size(), 3U);

  double ref_loss = 0.0;
  const std::vector<float> ref = reference_4rank(mopt, &ref_loss);
  const std::vector<float> got = flat_params(mirrored.model());
  ASSERT_EQ(got.size(), ref.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got[i], ref[i], 1e-6F) << "param element " << i;
  }
  EXPECT_NEAR(report.history.back().train_loss, ref_loss, 1e-6);
}

// A slow epoch boundary (validation, checkpoint I/O) must not keep a
// requested rejoin out: the boundary runs after every rank finished the
// epoch, so how long it took says nothing about the group's health.
TEST_F(ChaosGrowTest, SlowEpochBoundaryStillAdmitsRejoin) {
  MirroredOptions mopt = grow_options(dir_);
  MirroredStrategy mirrored(tiny_model(), mopt);
  arm_kill_with_rejoin(mirrored);
  data::BatchStream train = make_stream();
  data::BatchStream val(
      std::make_unique<SlowFirstExampleStream>(
          make_examples(4, 29), std::chrono::milliseconds(2500)),
      4);
  const TrainReport report = mirrored.fit(train, &val);

  EXPECT_EQ(mirrored.recoveries(), 1);
  EXPECT_EQ(mirrored.grows(), 1);
  EXPECT_EQ(mirrored.world_size(), 4);
  ASSERT_EQ(report.history.size(), 2U);
}

// Both transitions leave a tagged flight-recorder dump: one for the
// shrink (4->3), one for the grow (3->4).
TEST_F(ChaosGrowTest, ShrinkAndGrowEachLeaveTaggedFlightDump) {
  auto& recorder = obs::FlightRecorder::instance();
  recorder.configure(dir_ + "/flight");
  const int64_t dumps_before = recorder.dumps();

  MirroredOptions mopt = grow_options(dir_);
  MirroredStrategy mirrored(tiny_model(), mopt);
  arm_kill_with_rejoin(mirrored);
  data::BatchStream train = make_stream();
  (void)mirrored.fit(train, nullptr);
  EXPECT_EQ(mirrored.grows(), 1);
  EXPECT_GE(recorder.dumps() - dumps_before, 2);

  // Scan the dump directory for both transition tags (old->new world).
  bool saw_shrink = false;
  bool saw_grow = false;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir_ + "/flight")) {
    std::ifstream is(entry.path());
    const std::string blob((std::istreambuf_iterator<char>(is)),
                           std::istreambuf_iterator<char>());
    saw_shrink = saw_shrink ||
                 blob.find("train.elastic.shrink(4->3)") != std::string::npos;
    saw_grow = saw_grow ||
               blob.find("train.elastic.grow(3->4)") != std::string::npos;
  }
  EXPECT_TRUE(saw_shrink);
  EXPECT_TRUE(saw_grow);
}

}  // namespace
}  // namespace dmis::train
