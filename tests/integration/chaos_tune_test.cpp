// Chaos test for the fault-tolerance subsystem: a tune sweep with
// injected trial crashes, a worker preemption, and a checkpoint-write
// fault must still terminate every trial, resume retried trials from
// their last durable checkpoint, and select the same best trial as a
// fault-free run. Serial execution (1 GPU) keeps the fault schedule
// fully deterministic.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/fault_injector.hpp"
#include "nn/checkpoint.hpp"
#include "raylite/tune.hpp"
#include "tensor/ndarray.hpp"

namespace dmis {
namespace {

constexpr int64_t kIters = 6;

/// Known metric optimum at lr = 1e-4 (same shape as tune_test's).
double quality(double lr) {
  return 1.0 - std::fabs(std::log10(lr) + 4.0) / 10.0;
}

std::vector<ray::ParamSet> lr_grid8() {
  ray::SearchSpace space;
  space.choice("lr", {1e-3, 3e-4, 1e-4, 3e-5, 1e-5, 3e-6, 1e-6, 3e-7});
  return space.grid();
}

struct AttemptRecord {
  int64_t start = 0;        ///< reporter.start_iteration() at entry
  int64_t loaded_iter = 0;  ///< iteration restored from checkpoint
  bool had_checkpoint = false;
};
using AttemptLog = std::map<std::string, std::vector<AttemptRecord>>;

/// A checkpointing trainable: a 1-element "model" accumulates lr per
/// iteration, durably checkpointed each step (state + iteration count).
/// On retry it restores from the checkpoint and verifies the restored
/// state is exactly what `loaded_iter` training steps produce — a
/// restart-from-zero or torn checkpoint makes the trial throw.
ray::Trainable make_trainable(AttemptLog* log, std::mutex* mu) {
  return [log, mu](const ray::ParamSet& params, ray::Reporter& reporter) {
    const double lr = ray::param_double(params, "lr");
    const std::string ckpt = reporter.checkpoint_dir() + "/model.bin";

    NDArray weight(Shape{1}, 0.0F);
    NDArray weight_grad(Shape{1});
    NDArray iter_count(Shape{1}, 0.0F);
    NDArray iter_grad(Shape{1});
    std::vector<nn::Param> state{{"weight", &weight, &weight_grad},
                                 {"iter", &iter_count, &iter_grad}};

    AttemptRecord record;
    record.start = reporter.start_iteration();
    int64_t done = 0;
    if (std::filesystem::exists(ckpt)) {
      nn::load_checkpoint(ckpt, state);
      done = static_cast<int64_t>(iter_count[0]);
      record.had_checkpoint = true;
      record.loaded_iter = done;
      DMIS_ASSERT(std::fabs(weight[0] - static_cast<float>(lr) *
                                            static_cast<float>(done)) < 1e-4F,
                  "restored weight inconsistent with " << done << " steps");
      // save-then-report ordering guarantees the checkpoint is at least
      // as fresh as the progress the scheduler saw.
      DMIS_ASSERT(done >= record.start, "checkpoint older than reported");
    }
    {
      const std::lock_guard<std::mutex> lock(*mu);
      (*log)[reporter.checkpoint_dir()].push_back(record);
    }

    auto& faults = common::FaultInjector::instance();
    for (int64_t it = done; it < kIters; ++it) {
      weight[0] += static_cast<float>(lr);  // "one training step"
      iter_count[0] = static_cast<float>(it + 1);
      nn::save_checkpoint(ckpt, state);  // durable before reporting
      reporter.report(it, {{"val_dice", quality(lr) *
                                            static_cast<double>(it + 1) /
                                            static_cast<double>(kIters)}});
      // Trial-crash failure point: fires after the step is durable, so
      // every chaos-induced retry must resume with start_iteration > 0.
      faults.maybe_fail("chaos.step");
    }
  };
}

class ChaosTuneTest : public ::testing::Test {
 protected:
  void SetUp() override {
    common::FaultInjector::instance().reset();
    root_ = std::filesystem::temp_directory_path() /
            ("dmis_chaos_" + std::to_string(::getpid()));
    std::filesystem::remove_all(root_);
  }
  void TearDown() override {
    common::FaultInjector::instance().reset();
    std::filesystem::remove_all(root_);
  }
  std::filesystem::path root_;
};

TEST_F(ChaosTuneTest, SweepSurvivesInjectedCrashesAndResumes) {
  ray::TuneOptions opts;
  opts.num_gpus = 1;  // serial: deterministic fault schedule
  opts.retry.max_retries = 6;
  opts.retry.backoff_base = 0.001;
  opts.retry.backoff_cap = 0.01;

  // Reference: the same sweep with every failure point disarmed.
  std::mutex mu;
  AttemptLog reference_log;
  opts.checkpoint_root = (root_ / "fault_free").string();
  const ray::TuneResult reference =
      ray::tune_run(make_trainable(&reference_log, &mu), lr_grid8(), opts);
  ASSERT_EQ(reference.count(ray::TrialStatus::kTerminated), 8);
  ASSERT_EQ(reference.transient_failures(), 0);
  const ray::Trial& ref_best = reference.best("val_dice");

  // Chaos run: >= 3 mid-training crashes (every 13th durable step out
  // of >= 48), one worker preemption before a trainable even runs, and
  // one checkpoint-write fault (the 20th of >= 48 saves).
  auto& faults = common::FaultInjector::instance();
  faults.seed(1234);
  faults.arm_every_n("chaos.step", 13);
  faults.arm_nth_call("raylite.task", 3);
  faults.arm_nth_call("checkpoint.save.write", 20);

  AttemptLog chaos_log;
  ray::TuneOptions chaos_opts = opts;
  chaos_opts.checkpoint_root = (root_ / "chaos").string();
  const ray::TuneResult result =
      ray::tune_run(make_trainable(&chaos_log, &mu), lr_grid8(), chaos_opts);

  const int64_t step_crashes = faults.fires("chaos.step");
  const int64_t preemptions = faults.fires("raylite.task");
  const int64_t write_faults = faults.fires("checkpoint.save.write");
  EXPECT_GE(step_crashes, 3);
  EXPECT_EQ(preemptions, 1);
  EXPECT_EQ(write_faults, 1);

  // Every trial terminates despite the faults; none is abandoned.
  EXPECT_EQ(result.count(ray::TrialStatus::kTerminated), 8);
  EXPECT_EQ(result.count(ray::TrialStatus::kFailed), 0);
  for (const ray::Trial& t : result.trials) {
    EXPECT_EQ(t.iterations, kIters) << "trial " << t.id;
  }

  // Each fired fault aborted exactly one attempt, and each aborted
  // attempt was rescheduled.
  EXPECT_EQ(result.transient_failures(),
            step_crashes + preemptions + write_faults);

  // Retried trials resumed from their checkpoints: every chaos-step
  // crash happened after >= 1 durable iteration, so at least that many
  // attempts started past zero — with on-disk state matching the
  // iteration count exactly (verified inside the trainable).
  int64_t resumed_attempts = 0;
  for (const auto& [dir, attempts] : chaos_log) {
    for (size_t a = 0; a < attempts.size(); ++a) {
      if (a == 0) {
        EXPECT_EQ(attempts[a].start, 0);
        continue;
      }
      if (attempts[a].start > 0) {
        ++resumed_attempts;
        EXPECT_TRUE(attempts[a].had_checkpoint);
        EXPECT_GE(attempts[a].loaded_iter, attempts[a].start);
      }
    }
  }
  EXPECT_GE(resumed_attempts, step_crashes);

  // Fault-free and chaos runs agree: same best trial, same metrics.
  const ray::Trial& best = result.best("val_dice");
  EXPECT_DOUBLE_EQ(ray::param_double(best.params, "lr"),
                   ray::param_double(ref_best.params, "lr"));
  EXPECT_DOUBLE_EQ(best.last_metrics.at("val_dice"),
                   ref_best.last_metrics.at("val_dice"));
  for (size_t i = 0; i < result.trials.size(); ++i) {
    EXPECT_DOUBLE_EQ(result.trials[i].last_metrics.at("val_dice"),
                     reference.trials[i].last_metrics.at("val_dice"))
        << "trial " << i;
  }
}

// Same sweep, randomized faults: probability-triggered crashes with a
// fixed seed are reproducible, and the sweep still completes as long as
// the retry budget absorbs the crash rate.
TEST_F(ChaosTuneTest, SeededRandomCrashesAreSurvivable) {
  auto& faults = common::FaultInjector::instance();
  faults.seed(99);
  faults.arm_probability("chaos.step", 0.05);

  std::mutex mu;
  AttemptLog log;
  ray::TuneOptions opts;
  opts.num_gpus = 1;
  opts.retry.max_retries = 10;
  opts.retry.backoff_base = 0.001;
  opts.retry.backoff_cap = 0.01;
  opts.checkpoint_root = (root_ / "random").string();
  const ray::TuneResult result =
      ray::tune_run(make_trainable(&log, &mu), lr_grid8(), opts);

  EXPECT_EQ(result.count(ray::TrialStatus::kTerminated), 8);
  EXPECT_EQ(result.count(ray::TrialStatus::kFailed), 0);
  EXPECT_EQ(result.transient_failures(), faults.fires("chaos.step"));
  EXPECT_DOUBLE_EQ(ray::param_double(result.best("val_dice").params, "lr"),
                   1e-4);
}

}  // namespace
}  // namespace dmis
