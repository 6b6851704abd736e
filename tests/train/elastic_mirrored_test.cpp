// Elastic data-parallel training: replica failure either fails fast
// (default) or shrinks the group to the survivors and resumes from the
// step-consistent checkpoint (MirroredOptions::elastic / DMIS_ELASTIC).
#include "train/mirrored.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <string_view>

#include "common/check.hpp"
#include "common/fault_injector.hpp"
#include "obs/trace.hpp"
#include "tensor/rng.hpp"

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
  opts.seed = 11;
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

class ElasticMirroredTest : public ::testing::Test {
 protected:
  void SetUp() override {
    common::FaultInjector::instance().reset();
    dir_ = (std::filesystem::temp_directory_path() /
            ("dmis_elastic_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
  }
  void TearDown() override {
    common::FaultInjector::instance().reset();
    std::filesystem::remove_all(dir_);
  }
  std::string dir_;
};

// Elastic off (the default): a replica killed mid-step fails the whole
// fit() promptly — the trial-retry layer above owns recovery.
TEST_F(ElasticMirroredTest, FailFastRethrowsWhenElasticOff) {
  common::FaultInjector::instance().arm_nth_call("comm.all_reduce.r2", 1);
  MirroredOptions mopt;
  mopt.num_replicas = 3;
  mopt.train.epochs = 2;
  mopt.train.lr = 1e-3;
  MirroredStrategy mirrored(tiny_model(), mopt);
  EXPECT_FALSE(mirrored.elastic());
  data::BatchStream train(data::from_examples(make_examples(6, 4)), 3);
  EXPECT_THROW(mirrored.fit(train, nullptr), Error);
  EXPECT_EQ(mirrored.recoveries(), 0);
}

// The acceptance-gate equivalence: kill one of three replicas on the
// very first step. Elastic recovery restores the step-0 checkpoint
// (initial weights, zero optimizer state) and rescales the lr to the
// new world size, so the shrunken run must match a fault-free 2-replica
// run arithmetically.
TEST_F(ElasticMirroredTest, ShrinksAndMatchesFreshSmallerRun) {
  common::FaultInjector::instance().arm_nth_call("comm.all_reduce.r2", 1);
  MirroredOptions mopt;
  mopt.num_replicas = 3;
  mopt.train.epochs = 2;
  mopt.train.lr = 1e-3;
  mopt.elastic = true;
  mopt.elastic_dir = dir_;
  MirroredStrategy mirrored(tiny_model(), mopt);
  ASSERT_TRUE(mirrored.elastic());
  data::BatchStream train(data::from_examples(make_examples(6, 4)), 3);
  const TrainReport report = mirrored.fit(train, nullptr);

  EXPECT_EQ(mirrored.recoveries(), 1);
  EXPECT_EQ(mirrored.world_size(), 2);
  EXPECT_DOUBLE_EQ(mirrored.effective_lr(), 2e-3);  // rescaled to world 2
  ASSERT_EQ(report.history.size(), 2U);
  EXPECT_TRUE(std::isfinite(report.history.back().train_loss));
  EXPECT_TRUE(
      std::filesystem::exists(std::filesystem::path(dir_) / "elastic.ckpt"));

  common::FaultInjector::instance().reset();
  MirroredOptions fresh;
  fresh.num_replicas = 2;
  fresh.train = mopt.train;
  MirroredStrategy reference(tiny_model(), fresh);
  data::BatchStream train_ref(data::from_examples(make_examples(6, 4)), 3);
  const TrainReport ref_report = reference.fit(train_ref, nullptr);

  const auto wa = flat_params(mirrored.model());
  const auto wb = flat_params(reference.model());
  ASSERT_EQ(wa.size(), wb.size());
  for (size_t i = 0; i < wa.size(); ++i) {
    ASSERT_NEAR(wa[i], wb[i], 1e-6F) << "param element " << i;
  }
  EXPECT_NEAR(report.history.back().train_loss,
              ref_report.history.back().train_loss, 1e-6);
}

// Mid-training failure: the restore has to bring back *optimizer* slot
// state and the stream position, not just weights. (Exact equivalence
// is checked above from a step-0 kill; here the already-trained state
// makes the point that recovery resumes rather than restarts.)
TEST_F(ElasticMirroredTest, RecoversFromMidTrainingFailure) {
  // Fires on rank 2's third allreduce — past the first epoch's steps,
  // so the restored checkpoint carries real optimizer state.
  common::FaultInjector::instance().arm_nth_call("comm.all_reduce.r2", 3);
  MirroredOptions mopt;
  mopt.num_replicas = 3;
  mopt.train.epochs = 2;
  mopt.train.lr = 1e-3;
  mopt.elastic = true;
  mopt.elastic_dir = dir_;
  MirroredStrategy mirrored(tiny_model(), mopt);
  data::BatchStream train(data::from_examples(make_examples(6, 4)), 3);
  const TrainReport report = mirrored.fit(train, nullptr);
  EXPECT_EQ(mirrored.recoveries(), 1);
  EXPECT_EQ(mirrored.world_size(), 2);
  ASSERT_EQ(report.history.size(), 2U);
  for (const EpochStats& s : report.history) {
    EXPECT_TRUE(std::isfinite(s.train_loss));
    EXPECT_EQ(s.steps, 2);  // both epochs complete despite the failure
  }
}

// The rank workers are rebuilt with the group: once a shrink from 3 to 2
// has recovered, every train.backward span comes from one of exactly 2
// threads.
TEST_F(ElasticMirroredTest, SurvivorsRunOnWorldMinusOneRankThreads) {
  common::FaultInjector::instance().arm_nth_call("comm.all_reduce.r2", 3);
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.clear();
  tracer.enable();
  MirroredOptions mopt;
  mopt.num_replicas = 3;
  mopt.train.epochs = 2;
  mopt.train.lr = 1e-3;
  mopt.elastic = true;
  mopt.elastic_dir = dir_;
  MirroredStrategy mirrored(tiny_model(), mopt);
  data::BatchStream train(data::from_examples(make_examples(12, 4)), 3);
  mirrored.fit(train, nullptr);
  tracer.disable();
  ASSERT_EQ(mirrored.recoveries(), 1);
  ASSERT_EQ(mirrored.world_size(), 2);

  const std::vector<obs::TraceEvent> events = tracer.events();
  tracer.clear();
  int64_t recovered_us = -1;
  for (const obs::TraceEvent& ev : events) {
    if (std::string_view(ev.name) == "train.elastic.recovery") {
      recovered_us = ev.ts_us + ev.dur_us;
    }
  }
  ASSERT_GE(recovered_us, 0);
  std::set<int32_t> tids;
  int spans = 0;
  for (const obs::TraceEvent& ev : events) {
    if (std::string_view(ev.name) != "train.backward" ||
        ev.ts_us < recovered_us) {
      continue;
    }
    tids.insert(ev.tid);
    ++spans;
  }
  // The rest of epoch 1 replays from the checkpoint, then all of epoch 2.
  EXPECT_GE(spans, 4 * 2);
  EXPECT_EQ(tids.size(), 2U);
}

// When every replica dies in the same step there is nobody to shrink
// to: elastic mode rethrows like fail-fast instead of looping.
TEST_F(ElasticMirroredTest, NoSurvivorsRethrows) {
  common::FaultInjector::instance().arm_probability("comm.all_reduce", 1.0);
  MirroredOptions mopt;
  mopt.num_replicas = 2;
  mopt.train.epochs = 1;
  mopt.train.lr = 1e-3;
  mopt.elastic = true;
  mopt.elastic_dir = dir_;
  MirroredStrategy mirrored(tiny_model(), mopt);
  data::BatchStream train(data::from_examples(make_examples(4, 5)), 2);
  EXPECT_THROW(mirrored.fit(train, nullptr), Error);
}

TEST_F(ElasticMirroredTest, EnvOverrideControlsElasticMode) {
  MirroredOptions mopt;
  mopt.num_replicas = 2;
  mopt.elastic_dir = dir_;

  ::setenv("DMIS_ELASTIC", "1", 1);
  MirroredStrategy on(tiny_model(), mopt);
  EXPECT_TRUE(on.elastic());

  ::setenv("DMIS_ELASTIC", "0", 1);
  mopt.elastic = true;
  MirroredStrategy off(tiny_model(), mopt);
  EXPECT_FALSE(off.elastic());
  ::unsetenv("DMIS_ELASTIC");

  // Elastic mode without a checkpoint directory is a configuration
  // error, not a latent crash at recovery time.
  MirroredOptions bad;
  bad.num_replicas = 2;
  bad.elastic = true;
  EXPECT_THROW(MirroredStrategy(tiny_model(), bad), InvalidArgument);
}

// "no", "disabled" or a typo must not switch elastic mode on: the knob
// accepts only 1/0, true/false, on/off and names itself when it rejects
// a value.
TEST_F(ElasticMirroredTest, MalformedElasticKnobsAreRejected) {
  MirroredOptions mopt;
  mopt.num_replicas = 2;
  mopt.elastic_dir = dir_;
  const auto expect_rejected = [&](const char* knob, const char* value) {
    ::setenv(knob, value, 1);
    try {
      MirroredStrategy strategy(tiny_model(), mopt);
      ADD_FAILURE() << knob << "=" << value << " was accepted";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string_view(e.what()).find(knob),
                std::string_view::npos)
          << e.what();
    }
    ::unsetenv(knob);
  };
  expect_rejected("DMIS_ELASTIC", "no");
  expect_rejected("DMIS_ELASTIC", "disabled");
}

}  // namespace
}  // namespace dmis::train
