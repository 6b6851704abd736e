#include "raylite/tune.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "common/check.hpp"
#include "common/fault_injector.hpp"
#include "obs/metrics.hpp"
#include "raylite/sweep_ledger.hpp"

namespace dmis::ray {
namespace {

// A synthetic trainable whose final metric is a known function of its
// hyper-parameters: val_dice = 1 - |log10(lr) + 4| / 10 (best at 1e-4).
void synthetic_trainable(const ParamSet& params, Reporter& reporter) {
  const double lr = param_double(params, "lr");
  const double final_dice = 1.0 - std::fabs(std::log10(lr) + 4.0) / 10.0;
  for (int64_t epoch = 0; epoch < 5; ++epoch) {
    if (reporter.should_stop()) return;
    const double dice =
        final_dice * (static_cast<double>(epoch + 1) / 5.0);
    reporter.report(epoch, {{"val_dice", dice}, {"loss", 1.0 - dice}});
  }
}

std::vector<ParamSet> lr_grid() {
  SearchSpace space;
  space.choice("lr", {1e-3, 1e-4, 1e-5, 1e-6});
  return space.grid();
}

TEST(TuneTest, RunsAllTrialsToTermination) {
  TuneOptions opts;
  opts.num_gpus = 2;
  const TuneResult result = tune_run(synthetic_trainable, lr_grid(), opts);
  ASSERT_EQ(result.trials.size(), 4U);
  EXPECT_EQ(result.count(TrialStatus::kTerminated), 4);
  for (const Trial& t : result.trials) {
    EXPECT_EQ(t.iterations, 5);
    EXPECT_TRUE(t.last_metrics.count("val_dice"));
  }
}

TEST(TuneTest, BestPicksKnownOptimum) {
  TuneOptions opts;
  opts.num_gpus = 4;
  const TuneResult result = tune_run(synthetic_trainable, lr_grid(), opts);
  const Trial& best = result.best("val_dice");
  EXPECT_DOUBLE_EQ(param_double(best.params, "lr"), 1e-4);
  // Minimize mode picks the worst lr's loss... i.e. best (lowest) loss
  // is still the lr=1e-4 trial.
  const Trial& best_loss = result.best("loss", /*maximize=*/false);
  EXPECT_DOUBLE_EQ(param_double(best_loss.params, "lr"), 1e-4);
}

TEST(TuneTest, TrialErrorsAreCapturedNotFatal) {
  const auto flaky = [](const ParamSet& params, Reporter& reporter) {
    if (param_double(params, "lr") > 5e-4) {
      throw IoError("simulated NaN loss");
    }
    reporter.report(0, {{"val_dice", 0.5}});
  };
  TuneOptions opts;
  opts.num_gpus = 2;
  const obs::Counter& trials_failed =
      obs::MetricsRegistry::instance().counter("tune.trials_failed");
  const int64_t failed_before = trials_failed.value();
  const TuneResult result = tune_run(flaky, lr_grid(), opts);
  // With retries disabled the throwing trial lands in kFailed, counted
  // once, and nothing is rescheduled.
  EXPECT_EQ(result.count(TrialStatus::kFailed), 1);
  EXPECT_EQ(result.count(TrialStatus::kTerminated), 3);
  EXPECT_EQ(trials_failed.value() - failed_before, 1);
  EXPECT_EQ(result.transient_failures(), 0);
  for (const Trial& t : result.trials) {
    if (t.status == TrialStatus::kFailed) {
      EXPECT_NE(t.error.find("NaN"), std::string::npos);
    }
  }
}

TEST(TuneTest, ConcurrencyBoundedByGpuPool) {
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  const auto trainable = [&](const ParamSet&, Reporter& reporter) {
    const int now = running.fetch_add(1) + 1;
    int expected = peak.load();
    while (now > expected && !peak.compare_exchange_weak(expected, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    running.fetch_sub(1);
    reporter.report(0, {{"val_dice", 0.1}});
  };
  TuneOptions opts;
  opts.num_gpus = 2;
  SearchSpace space;
  space.choice("i", {int64_t{0}, int64_t{1}, int64_t{2}, int64_t{3},
                     int64_t{4}, int64_t{5}, int64_t{6}, int64_t{7}});
  const TuneResult result = tune_run(trainable, space.grid(), opts);
  EXPECT_EQ(result.count(TrialStatus::kTerminated), 8);
  EXPECT_LE(peak.load(), 2);
}

TEST(TuneTest, AshaStopsLowPerformersEarly) {
  // Trials with monotone metric proportional to their "quality" q; ASHA
  // at eta=2 should stop roughly half at each rung.
  const auto trainable = [](const ParamSet& params, Reporter& reporter) {
    const double q = param_double(params, "q");
    for (int64_t epoch = 0; epoch < 8; ++epoch) {
      if (reporter.should_stop()) return;
      reporter.report(epoch, {{"val_dice", q * (1.0 + 0.01 * epoch)}});
    }
  };
  SearchSpace space;
  std::vector<ParamValue> qs;
  for (int i = 8; i >= 1; --i) qs.push_back(0.1 * i);
  space.choice("q", qs);

  TuneOptions opts;
  opts.num_gpus = 1;  // serial: deterministic rung populations
  AshaOptions asha;
  asha.metric = "val_dice";
  asha.grace_period = 2;
  asha.reduction_factor = 2;
  opts.asha = asha;

  const TuneResult result = tune_run(trainable, space.grid(), opts);
  const int64_t stopped = result.count(TrialStatus::kStopped);
  const int64_t full = result.count(TrialStatus::kTerminated);
  EXPECT_EQ(stopped + full, 8);
  EXPECT_GT(stopped, 0);      // some early stopping happened
  EXPECT_GT(full, 0);         // the best survived
  // The best trial must run to completion.
  const Trial& best = result.best("val_dice");
  EXPECT_EQ(best.iterations, 8);
  // Early-stopped trials did fewer iterations.
  for (const Trial& t : result.trials) {
    if (t.status == TrialStatus::kStopped) EXPECT_LT(t.iterations, 8);
  }
}

TEST(TuneTest, AshaSavesTotalIterations) {
  std::atomic<int64_t> total_epochs{0};
  const auto trainable = [&](const ParamSet& params, Reporter& reporter) {
    const double q = param_double(params, "q");
    for (int64_t epoch = 0; epoch < 16; ++epoch) {
      if (reporter.should_stop()) return;
      total_epochs.fetch_add(1);
      reporter.report(epoch, {{"val_dice", q}});
    }
  };
  SearchSpace space;
  std::vector<ParamValue> qs;
  for (int i = 8; i >= 1; --i) qs.push_back(0.1 * i);
  space.choice("q", qs);

  TuneOptions fifo;
  fifo.num_gpus = 1;
  const TuneResult full = tune_run(trainable, space.grid(), fifo);
  const int64_t full_epochs = total_epochs.exchange(0);

  TuneOptions opts = fifo;
  AshaOptions asha;
  asha.grace_period = 2;
  opts.asha = asha;
  const TuneResult pruned = tune_run(trainable, space.grid(), opts);
  const int64_t pruned_epochs = total_epochs.load();

  EXPECT_EQ(full.count(TrialStatus::kTerminated), 8);
  EXPECT_LT(pruned_epochs, full_epochs / 2);  // substantial savings
  // And the optimum is preserved.
  EXPECT_DOUBLE_EQ(param_double(pruned.best("val_dice").params, "q"), 0.8);
}

TEST(TuneTest, RejectsBadArguments) {
  TuneOptions opts;
  EXPECT_THROW(tune_run(nullptr, lr_grid(), opts), InvalidArgument);
  EXPECT_THROW(tune_run(synthetic_trainable, {}, opts), InvalidArgument);
  opts.num_gpus = 0;
  EXPECT_THROW(tune_run(synthetic_trainable, lr_grid(), opts),
               InvalidArgument);
}

TEST(TuneTest, BestThrowsWhenNoTrialReportedMetric) {
  const auto silent = [](const ParamSet&, Reporter&) {};
  TuneOptions opts;
  const TuneResult result = tune_run(silent, lr_grid(), opts);
  EXPECT_THROW(result.best("val_dice"), InvalidArgument);
}

TEST(TrialStatusTest, Names) {
  EXPECT_STREQ(trial_status_name(TrialStatus::kPending), "PENDING");
  EXPECT_STREQ(trial_status_name(TrialStatus::kRunning), "RUNNING");
  EXPECT_STREQ(trial_status_name(TrialStatus::kTerminated), "TERMINATED");
  EXPECT_STREQ(trial_status_name(TrialStatus::kStopped), "STOPPED");
  EXPECT_STREQ(trial_status_name(TrialStatus::kFailed), "FAILED");
}

class TuneRetryTest : public ::testing::Test {
 protected:
  void SetUp() override { common::FaultInjector::instance().reset(); }
  void TearDown() override { common::FaultInjector::instance().reset(); }
};

TEST_F(TuneRetryTest, TransientFailureIsRetriedToSuccess) {
  // Each trial throws on its first attempt, succeeds on the second.
  std::mutex mu;
  std::map<double, int> attempts_by_lr;
  const auto flaky_once = [&](const ParamSet& params, Reporter& reporter) {
    const double lr = param_double(params, "lr");
    {
      const std::lock_guard<std::mutex> lock(mu);
      if (++attempts_by_lr[lr] == 1) throw IoError("transient NaN");
    }
    reporter.report(0, {{"val_dice", lr}});
  };
  TuneOptions opts;
  opts.num_gpus = 2;
  opts.retry.max_retries = 2;
  opts.retry.backoff_base = 0.001;
  opts.retry.backoff_cap = 0.01;
  const TuneResult result = tune_run(flaky_once, lr_grid(), opts);
  EXPECT_EQ(result.count(TrialStatus::kTerminated), 4);
  EXPECT_EQ(result.count(TrialStatus::kFailed), 0);
  EXPECT_EQ(result.transient_failures(), 4);
  for (const Trial& t : result.trials) {
    EXPECT_EQ(t.attempts, 2);
    ASSERT_EQ(t.transient_errors.size(), 1U);
    EXPECT_NE(t.transient_errors[0].find("NaN"), std::string::npos);
    EXPECT_TRUE(t.error.empty());
  }
}

TEST_F(TuneRetryTest, ExhaustedRetriesLandInFailedNotError) {
  const auto always_broken = [](const ParamSet& params, Reporter& reporter) {
    if (param_double(params, "lr") > 5e-4) throw IoError("persistent crash");
    reporter.report(0, {{"val_dice", 0.5}});
  };
  TuneOptions opts;
  opts.num_gpus = 2;
  opts.retry.max_retries = 2;
  opts.retry.backoff_base = 0.001;
  opts.retry.backoff_cap = 0.01;
  const TuneResult result = tune_run(always_broken, lr_grid(), opts);
  EXPECT_EQ(result.count(TrialStatus::kFailed), 1);
  EXPECT_EQ(result.count(TrialStatus::kTerminated), 3);
  for (const Trial& t : result.trials) {
    if (t.status != TrialStatus::kFailed) continue;
    EXPECT_EQ(t.attempts, 3);  // 1 initial + 2 retries
    EXPECT_EQ(t.transient_errors.size(), 2U);
    EXPECT_NE(t.error.find("persistent"), std::string::npos);
  }
  // The sweep still selects a best among the healthy trials.
  EXPECT_NO_THROW(result.best("val_dice"));
}

TEST_F(TuneRetryTest, WorkerLevelCrashIsRetriedToo) {
  // Kill the task at the RayLite worker layer (before the trainable
  // even runs) — the injected preemption case.
  common::FaultInjector::instance().arm_nth_call("raylite.task", 2);
  TuneOptions opts;
  opts.num_gpus = 1;  // serial: deterministic victim
  opts.retry.max_retries = 1;
  opts.retry.backoff_base = 0.001;
  opts.retry.backoff_cap = 0.01;
  const TuneResult result = tune_run(synthetic_trainable, lr_grid(), opts);
  EXPECT_EQ(result.count(TrialStatus::kTerminated), 4);
  EXPECT_EQ(result.transient_failures(), 1);
  bool saw_injected = false;
  for (const Trial& t : result.trials) {
    for (const std::string& e : t.transient_errors) {
      saw_injected = saw_injected ||
                     e.find("injected fault") != std::string::npos;
    }
  }
  EXPECT_TRUE(saw_injected);
}

TEST_F(TuneRetryTest, RetryAttemptSeesPriorProgress) {
  // A trial that dies mid-training must see, on retry, the iteration it
  // had durably reported — the hook the checkpoint-resume path uses.
  std::mutex mu;
  std::map<double, std::vector<int64_t>> starts_by_lr;
  const auto dies_midway = [&](const ParamSet& params, Reporter& reporter) {
    const double lr = param_double(params, "lr");
    bool first_attempt = false;
    {
      const std::lock_guard<std::mutex> lock(mu);
      auto& starts = starts_by_lr[lr];
      first_attempt = starts.empty();
      starts.push_back(reporter.start_iteration());
    }
    for (int64_t it = reporter.start_iteration(); it < 4; ++it) {
      reporter.report(it, {{"val_dice", 0.1 * static_cast<double>(it + 1)}});
      if (first_attempt && it == 1) throw IoError("died after iteration 1");
    }
  };
  TuneOptions opts;
  opts.num_gpus = 2;
  opts.retry.max_retries = 1;
  opts.retry.backoff_base = 0.001;
  opts.retry.backoff_cap = 0.01;
  const TuneResult result = tune_run(dies_midway, lr_grid(), opts);
  EXPECT_EQ(result.count(TrialStatus::kTerminated), 4);
  for (const auto& [lr, starts] : starts_by_lr) {
    ASSERT_EQ(starts.size(), 2U) << "lr=" << lr;
    EXPECT_EQ(starts[0], 0);
    EXPECT_EQ(starts[1], 2);  // resumed after the last reported iteration
  }
  for (const Trial& t : result.trials) EXPECT_EQ(t.iterations, 4);
}

TEST_F(TuneRetryTest, CheckpointDirsAreCreatedPerTrial) {
  const std::string root =
      (std::filesystem::temp_directory_path() /
       ("dmis_tune_ckpt_" + std::to_string(::getpid())))
          .string();
  std::mutex mu;
  std::vector<std::string> seen_dirs;
  const auto trainable = [&](const ParamSet&, Reporter& reporter) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      seen_dirs.push_back(reporter.checkpoint_dir());
    }
    EXPECT_TRUE(std::filesystem::is_directory(reporter.checkpoint_dir()));
    reporter.report(0, {{"val_dice", 0.5}});
  };
  TuneOptions opts;
  opts.num_gpus = 2;
  opts.checkpoint_root = root;
  const TuneResult result = tune_run(trainable, lr_grid(), opts);
  EXPECT_EQ(result.count(TrialStatus::kTerminated), 4);
  std::sort(seen_dirs.begin(), seen_dirs.end());
  EXPECT_EQ(seen_dirs.size(), 4U);
  EXPECT_EQ(std::unique(seen_dirs.begin(), seen_dirs.end()),
            seen_dirs.end());  // one distinct dir per trial
  for (const Trial& t : result.trials) {
    EXPECT_EQ(t.checkpoint_dir, root + "/trial_" + std::to_string(t.id));
  }
  std::filesystem::remove_all(root);
}

TEST_F(TuneRetryTest, RejectsBadRetryPolicy) {
  TuneOptions opts;
  opts.retry.max_retries = -1;
  EXPECT_THROW(tune_run(synthetic_trainable, lr_grid(), opts),
               InvalidArgument);
  opts.retry.max_retries = 0;
  opts.retry.backoff_base = -0.1;
  EXPECT_THROW(tune_run(synthetic_trainable, lr_grid(), opts),
               InvalidArgument);
  opts.retry.backoff_base = 0.05;
  opts.retry.jitter = 1.5;
  EXPECT_THROW(tune_run(synthetic_trainable, lr_grid(), opts),
               InvalidArgument);
  opts.retry.jitter = -0.1;
  EXPECT_THROW(tune_run(synthetic_trainable, lr_grid(), opts),
               InvalidArgument);
}

// A comm timeout or peer failure inside a trial's data-parallel group
// is transient — a slow or dead rank, not a bad configuration — so the
// trial is rescheduled and can succeed on retry.
TEST_F(TuneRetryTest, CommTimeoutAndPeerFailureAreTransient) {
  std::mutex mu;
  std::map<double, int> attempts_by_lr;
  const auto flaky_comm = [&](const ParamSet& params, Reporter& reporter) {
    const double lr = param_double(params, "lr");
    int attempt = 0;
    {
      const std::lock_guard<std::mutex> lock(mu);
      attempt = ++attempts_by_lr[lr];
    }
    if (attempt == 1) {
      if (lr > 5e-4) {
        throw comm::CommError(comm::CommErrorKind::kTimeout,
                              "collective deadline expired on rank 1");
      }
      throw comm::CommError(comm::CommErrorKind::kPeerFailed,
                            "rank 2 failed: simulated crash");
    }
    reporter.report(0, {{"val_dice", 0.5}});
  };
  TuneOptions opts;
  opts.num_gpus = 2;
  opts.retry.max_retries = 2;
  opts.retry.backoff_base = 0.001;
  opts.retry.backoff_cap = 0.01;
  const TuneResult result = tune_run(flaky_comm, lr_grid(), opts);
  EXPECT_EQ(result.count(TrialStatus::kTerminated), 4);
  EXPECT_EQ(result.count(TrialStatus::kFailed), 0);
  for (const Trial& t : result.trials) {
    EXPECT_EQ(t.attempts, 2);
    EXPECT_FALSE(t.permanent_error);
    ASSERT_EQ(t.transient_errors.size(), 1U);
  }
}

// An aborted comm group was killed deliberately: retrying cannot help,
// so the trial lands in kFailed immediately without burning retries.
TEST_F(TuneRetryTest, CommAbortIsPermanent) {
  std::atomic<int> calls{0};
  const auto aborted = [&](const ParamSet&, Reporter&) {
    calls.fetch_add(1);
    throw comm::CommError(comm::CommErrorKind::kAborted,
                          "rank 0 fenced out of the group");
  };
  TuneOptions opts;
  opts.num_gpus = 2;
  opts.retry.max_retries = 3;
  opts.retry.backoff_base = 0.001;
  const TuneResult result = tune_run(aborted, lr_grid(), opts);
  EXPECT_EQ(result.count(TrialStatus::kFailed), 4);
  EXPECT_EQ(calls.load(), 4);  // one attempt each, never retried
  for (const Trial& t : result.trials) {
    EXPECT_EQ(t.attempts, 1);
    EXPECT_TRUE(t.permanent_error);
    EXPECT_TRUE(t.transient_errors.empty());
    EXPECT_NE(t.error.find("fenced"), std::string::npos);
  }
}

// A bad configuration stays bad: InvalidArgument is permanent too.
TEST_F(TuneRetryTest, InvalidConfigIsPermanent) {
  const auto bad_config = [](const ParamSet& params, Reporter& reporter) {
    if (param_double(params, "lr") > 5e-4) {
      throw InvalidArgument("negative filter count");
    }
    reporter.report(0, {{"val_dice", 0.5}});
  };
  TuneOptions opts;
  opts.num_gpus = 2;
  opts.retry.max_retries = 2;
  opts.retry.backoff_base = 0.001;
  const TuneResult result = tune_run(bad_config, lr_grid(), opts);
  EXPECT_EQ(result.count(TrialStatus::kFailed), 1);
  EXPECT_EQ(result.count(TrialStatus::kTerminated), 3);
  for (const Trial& t : result.trials) {
    if (t.status != TrialStatus::kFailed) continue;
    EXPECT_EQ(t.attempts, 1);
    EXPECT_TRUE(t.permanent_error);
  }
}

// Jitter extremes must keep the backoff path functional (the delay can
// shrink to near zero but never goes negative or hangs).
TEST_F(TuneRetryTest, FullJitterStillRetriesToSuccess) {
  std::mutex mu;
  std::map<double, int> attempts_by_lr;
  const auto flaky_once = [&](const ParamSet& params, Reporter& reporter) {
    const double lr = param_double(params, "lr");
    {
      const std::lock_guard<std::mutex> lock(mu);
      if (++attempts_by_lr[lr] == 1) throw IoError("transient");
    }
    reporter.report(0, {{"val_dice", 0.5}});
  };
  TuneOptions opts;
  opts.num_gpus = 2;
  opts.retry.max_retries = 1;
  opts.retry.backoff_base = 0.001;
  opts.retry.backoff_cap = 0.01;
  opts.retry.jitter = 1.0;
  const TuneResult result = tune_run(flaky_once, lr_grid(), opts);
  EXPECT_EQ(result.count(TrialStatus::kTerminated), 4);
  EXPECT_EQ(result.transient_failures(), 4);
}

// Leftover *.tmp files from a crashed checkpoint save must be swept
// when the trial directory is (re)created, so a resuming attempt can
// never mistake a torn temp file for progress.
TEST_F(TuneRetryTest, StaleTmpFilesSweptFromTrialDirs) {
  const std::string root =
      (std::filesystem::temp_directory_path() /
       ("dmis_tune_sweep_" + std::to_string(::getpid())))
          .string();
  std::filesystem::create_directories(root + "/trial_0");
  {
    std::ofstream stale(root + "/trial_0/model.ckpt.tmp");
    stale << "torn write";
    std::ofstream keep(root + "/trial_0/model.ckpt");
    keep << "real checkpoint";
  }
  const auto trainable = [](const ParamSet&, Reporter& reporter) {
    reporter.report(0, {{"val_dice", 0.5}});
  };
  TuneOptions opts;
  opts.num_gpus = 2;
  opts.checkpoint_root = root;
  const TuneResult result = tune_run(trainable, lr_grid(), opts);
  EXPECT_EQ(result.count(TrialStatus::kTerminated), 4);
  EXPECT_FALSE(std::filesystem::exists(root + "/trial_0/model.ckpt.tmp"));
  EXPECT_TRUE(std::filesystem::exists(root + "/trial_0/model.ckpt"));
  std::filesystem::remove_all(root);
}

// ---- Sweep ledger: durable completed-trial record + restart adoption.

std::string fresh_root(const char* tag) {
  const std::string root =
      (std::filesystem::temp_directory_path() /
       (std::string("dmis_sweep_") + tag + "_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(root);
  return root;
}

TEST(SweepLedgerTest, EncodeDecodeRoundTrips) {
  LedgerEntry e;
  e.id = 7;
  e.status = "TERMINATED";
  e.iterations = 12;
  e.params = "loss=\"di\\ce\", lr=0.0003";  // quote + backslash survive
  e.metrics = {{"val_dice", 0.8125}, {"loss", 1e-9}};
  LedgerEntry back;
  ASSERT_TRUE(SweepLedger::decode(SweepLedger::encode(e), &back));
  EXPECT_EQ(back.id, e.id);
  EXPECT_EQ(back.status, e.status);
  EXPECT_EQ(back.iterations, e.iterations);
  EXPECT_EQ(back.params, e.params);
  ASSERT_EQ(back.metrics.size(), 2U);
  EXPECT_DOUBLE_EQ(back.metrics.at("val_dice"), 0.8125);
  EXPECT_DOUBLE_EQ(back.metrics.at("loss"), 1e-9);
}

TEST(SweepLedgerTest, CorruptLinesAreDetectedAndDropped) {
  LedgerEntry e;
  e.id = 1;
  e.status = "TERMINATED";
  e.iterations = 3;
  e.params = "lr=0.001";
  e.metrics = {{"score", 0.5}};
  std::string line = SweepLedger::encode(e);
  LedgerEntry out;
  ASSERT_TRUE(SweepLedger::decode(line, &out));
  // Any payload flip breaks the CRC.
  std::string torn = line;
  torn[torn.find("\"iterations\":3") + 13] = '9';
  EXPECT_FALSE(SweepLedger::decode(torn, &out));
  EXPECT_FALSE(SweepLedger::decode("not json at all", &out));
  EXPECT_FALSE(SweepLedger::decode(line.substr(0, line.size() / 2), &out));

  // A ledger file mixing good and torn lines keeps only the good one.
  const std::string root = fresh_root("corrupt");
  std::filesystem::create_directories(root);
  const std::string path = root + "/sweep_ledger.jsonl";
  {
    std::ofstream os(path);
    os << line << "\n" << torn << "\ngarbage\n";
  }
  SweepLedger ledger(path);
  ASSERT_EQ(ledger.entries().size(), 1U);
  EXPECT_EQ(ledger.entries()[0].id, 1);
  std::filesystem::remove_all(root);
}

TEST(SweepLedgerTest, RecordPersistsAndUpserts) {
  const std::string root = fresh_root("record");
  std::filesystem::create_directories(root);
  const std::string path = root + "/sweep_ledger.jsonl";
  {
    SweepLedger ledger(path);
    LedgerEntry e;
    e.id = 0;
    e.status = "TERMINATED";
    e.iterations = 2;
    e.params = "lr=0.001";
    ledger.record(e);
    e.id = 1;
    e.status = "STOPPED";
    ledger.record(e);
    e.id = 0;
    e.iterations = 5;  // upsert replaces, not duplicates
    ledger.record(e);
  }
  SweepLedger reloaded(path);
  ASSERT_EQ(reloaded.entries().size(), 2U);
  const LedgerEntry* t0 = reloaded.find(0, "lr=0.001");
  ASSERT_NE(t0, nullptr);
  EXPECT_EQ(t0->iterations, 5);
  EXPECT_NE(reloaded.find(1, "lr=0.001"), nullptr);
  // A changed fingerprint is a different sweep: no adoption.
  EXPECT_EQ(reloaded.find(0, "lr=0.01"), nullptr);
  std::filesystem::remove_all(root);
}

TEST(TuneTest, CompletedTrialsLandInLedger) {
  const std::string root = fresh_root("ledger");
  TuneOptions opts;
  opts.num_gpus = 2;
  opts.checkpoint_root = root;
  const TuneResult result = tune_run(synthetic_trainable, lr_grid(), opts);
  EXPECT_EQ(result.count(TrialStatus::kTerminated), 4);
  SweepLedger ledger(root + "/sweep_ledger.jsonl");
  ASSERT_EQ(ledger.entries().size(), 4U);
  for (const Trial& t : result.trials) {
    const LedgerEntry* e = ledger.find(t.id, param_set_str(t.params));
    ASSERT_NE(e, nullptr) << "trial " << t.id;
    EXPECT_EQ(e->status, "TERMINATED");
    EXPECT_EQ(e->iterations, t.iterations);
    EXPECT_DOUBLE_EQ(e->metrics.at("val_dice"),
                     t.last_metrics.at("val_dice"));
  }
  std::filesystem::remove_all(root);
}

TEST(TuneTest, RestartAdoptsCompletedTrialsWithoutRerunning) {
  const std::string root = fresh_root("resume");
  TuneOptions opts;
  opts.num_gpus = 2;
  opts.checkpoint_root = root;
  const TuneResult first = tune_run(synthetic_trainable, lr_grid(), opts);
  EXPECT_EQ(first.count(TrialStatus::kTerminated), 4);

  // The "restarted driver": same configs, same root. The trainable now
  // counts invocations — adoption means it never runs.
  std::atomic<int> reruns{0};
  const auto counting = [&](const ParamSet& params, Reporter& reporter) {
    ++reruns;
    synthetic_trainable(params, reporter);
  };
  const TuneResult second = tune_run(counting, lr_grid(), opts);
  EXPECT_EQ(reruns.load(), 0);
  EXPECT_EQ(second.count(TrialStatus::kTerminated), 4);
  for (size_t i = 0; i < second.trials.size(); ++i) {
    EXPECT_EQ(second.trials[i].attempts, 0);  // never dispatched
    EXPECT_EQ(second.trials[i].iterations, first.trials[i].iterations);
    EXPECT_EQ(second.trials[i].last_metrics, first.trials[i].last_metrics);
  }
  // Best-trial parity across the restart.
  EXPECT_EQ(second.best("val_dice").id, first.best("val_dice").id);
  std::filesystem::remove_all(root);
}

TEST(TuneTest, ChangedConfigurationIsNotAdopted) {
  const std::string root = fresh_root("changed");
  TuneOptions opts;
  opts.num_gpus = 2;
  opts.checkpoint_root = root;
  (void)tune_run(synthetic_trainable, lr_grid(), opts);

  // Same number of trials, different hyper-parameters: the fingerprint
  // mismatch must force a re-run rather than adopting stale results.
  SearchSpace space;
  space.choice("lr", {2e-3, 2e-4, 2e-5, 2e-6});
  std::atomic<int> reruns{0};
  const auto counting = [&](const ParamSet& params, Reporter& reporter) {
    ++reruns;
    synthetic_trainable(params, reporter);
  };
  const TuneResult second = tune_run(counting, space.grid(), opts);
  EXPECT_EQ(reruns.load(), 4);
  EXPECT_EQ(second.count(TrialStatus::kTerminated), 4);
  std::filesystem::remove_all(root);
}

TEST(TuneTest, AshaStoppedTrialsAdoptedAsStopped) {
  const std::string root = fresh_root("asha");
  // Wide quality spread so ASHA reliably stops the bottom trials.
  SearchSpace space;
  space.choice("lr", {1e-4, 1e-8});
  TuneOptions opts;
  opts.num_gpus = 1;  // serial: the good trial reaches each rung first
  opts.checkpoint_root = root;
  AshaOptions asha;
  asha.metric = "val_dice";
  asha.grace_period = 1;
  asha.reduction_factor = 2;
  opts.asha = asha;
  const TuneResult first = tune_run(synthetic_trainable, space.grid(), opts);
  ASSERT_EQ(first.count(TrialStatus::kStopped), 1);

  std::atomic<int> reruns{0};
  const auto counting = [&](const ParamSet& params, Reporter& reporter) {
    ++reruns;
    synthetic_trainable(params, reporter);
  };
  const TuneResult second = tune_run(counting, space.grid(), opts);
  EXPECT_EQ(reruns.load(), 0);
  EXPECT_EQ(second.count(TrialStatus::kStopped), 1);
  EXPECT_EQ(second.count(TrialStatus::kTerminated), 1);
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace dmis::ray
