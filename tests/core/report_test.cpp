#include "core/report.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "common/check.hpp"

namespace dmis::core {
namespace {

StudyResult sample_result() {
  StudyResult r;
  r.data_parallel = {{1, 1000.0, 990.0, 1010.0, 1.0},
                     {4, 300.0, 290.0, 310.0, 3.333}};
  r.experiment_parallel = {{1, 1000.0, 990.0, 1010.0, 1.0},
                           {4, 260.0, 250.0, 270.0, 3.846}};
  return r;
}

TEST(ReportTest, CsvRoundTrip) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("dmis_report_" + std::to_string(::getpid()) + ".csv");
  save_study_csv(path.string(), sample_result());
  std::ifstream is(path);
  std::string line;
  std::getline(is, line);
  EXPECT_EQ(line, "strategy,gpus,mean_s,min_s,max_s,speedup");
  int rows = 0;
  int dp = 0, ep = 0;
  while (std::getline(is, line)) {
    ++rows;
    dp += line.rfind("data_parallel,", 0) == 0;
    ep += line.rfind("experiment_parallel,", 0) == 0;
  }
  EXPECT_EQ(rows, 4);
  EXPECT_EQ(dp, 2);
  EXPECT_EQ(ep, 2);
  std::filesystem::remove(path);
}

TEST(ReportTest, CsvRejectsBadPath) {
  EXPECT_THROW(save_study_csv("/nonexistent/dir/x.csv", sample_result()),
               IoError);
}

TEST(ReportTest, HistoryCsvRoundTrip) {
  train::TrainReport report;
  train::EpochStats e0;
  e0.epoch = 0;
  e0.steps = 3;
  e0.train_loss = 0.75;
  e0.val_dice = 0.41;
  e0.lr = 1e-4;
  train::EpochStats e1 = e0;
  e1.epoch = 1;
  e1.train_loss = 0.5;
  e1.val_dice.reset();  // no validation that epoch
  report.history = {e0, e1};

  const auto path = std::filesystem::temp_directory_path() /
                    ("dmis_hist_" + std::to_string(::getpid()) + ".csv");
  save_history_csv(path.string(), report);
  std::ifstream is(path);
  std::string line;
  std::getline(is, line);
  EXPECT_EQ(line, "epoch,steps,train_loss,val_dice,lr");
  std::getline(is, line);
  EXPECT_EQ(line.rfind("0,3,0.75,0.41,", 0), 0U);
  std::getline(is, line);
  EXPECT_NE(line.find(",,"), std::string::npos);  // empty val_dice cell
  std::filesystem::remove(path);
}

TEST(ReportTest, TuneTableRendersStatusesAndMetrics) {
  ray::TuneResult result;
  ray::Trial ok;
  ok.id = 0;
  ok.params = {{"lr", 1e-4}};
  ok.status = ray::TrialStatus::kTerminated;
  ok.iterations = 5;
  ok.last_metrics = {{"val_dice", 0.8912}};
  ray::Trial failed;
  failed.id = 1;
  failed.params = {{"lr", 1e-3}};
  failed.status = ray::TrialStatus::kFailed;
  failed.error = "NaN loss";
  result.trials = {ok, failed};

  const std::string table = tune_table(result);
  EXPECT_NE(table.find("TERMINATED"), std::string::npos);
  EXPECT_NE(table.find("0.8912"), std::string::npos);
  EXPECT_NE(table.find("FAILED"), std::string::npos);
  EXPECT_NE(table.find("NaN loss"), std::string::npos);
  EXPECT_NE(table.find("lr=0.0001"), std::string::npos);
  EXPECT_NE(table.find("attempts"), std::string::npos);
  EXPECT_NE(table.find("transient"), std::string::npos);
  EXPECT_NE(table.find("straggler"), std::string::npos);
}

TEST(ReportTest, TuneTableShowsStragglerRatio) {
  ray::TuneResult result;
  ray::Trial steady;
  steady.id = 0;
  steady.params = {{"lr", 1e-4}};
  steady.status = ray::TrialStatus::kTerminated;
  steady.straggler_ratio = 1.08;
  steady.last_metrics = {{"val_dice", 0.8}};
  ray::Trial fresh;  // too few reports for a ratio -> "-"
  fresh.id = 1;
  fresh.params = {{"lr", 1e-3}};
  fresh.status = ray::TrialStatus::kTerminated;
  fresh.last_metrics = {{"val_dice", 0.7}};
  result.trials = {steady, fresh};

  const std::string table = tune_table(result);
  EXPECT_NE(table.find("1.08"), std::string::npos) << table;
  EXPECT_NE(table.find("-"), std::string::npos) << table;
}

TEST(ReportTest, TuneTableShowsRetryAccounting) {
  ray::TuneResult result;
  ray::Trial retried;
  retried.id = 0;
  retried.params = {{"lr", 1e-4}};
  retried.status = ray::TrialStatus::kTerminated;
  retried.iterations = 4;
  retried.attempts = 3;
  retried.transient_errors = {"crash A", "crash B"};
  retried.last_metrics = {{"val_dice", 0.75}};
  ray::Trial exhausted;
  exhausted.id = 1;
  exhausted.params = {{"lr", 1e-3}};
  exhausted.status = ray::TrialStatus::kFailed;
  exhausted.attempts = 3;
  exhausted.transient_errors = {"crash", "crash"};
  exhausted.error = "crash again";
  result.trials = {retried, exhausted};

  const std::string table = tune_table(result);
  // The retried trial shows 3 attempts / 2 transient errors.
  EXPECT_NE(table.find("3         2"), std::string::npos) << table;
  // A retry-exhausted trial surfaces its final error.
  EXPECT_NE(table.find("FAILED"), std::string::npos);
  EXPECT_NE(table.find("error: crash again"), std::string::npos);
}

TEST(ReportTest, TuneCsvQuotesConfigs) {
  ray::TuneResult result;
  ray::Trial t;
  t.id = 2;
  t.params = {{"lr", 1e-4}, {"loss", std::string("dice")}};
  t.status = ray::TrialStatus::kTerminated;
  t.iterations = 7;
  t.attempts = 2;
  t.transient_errors = {"preempted"};
  t.last_metrics = {{"val_dice", 0.91}};
  result.trials = {t};
  const auto path = std::filesystem::temp_directory_path() /
                    ("dmis_tunecsv_" + std::to_string(::getpid()) + ".csv");
  save_tune_csv(path.string(), result);
  std::ifstream is(path);
  std::string line;
  std::getline(is, line);
  EXPECT_EQ(line,
            "id,config,status,iterations,attempts,transient_errors,"
            "straggler_ratio,val_dice");
  std::getline(is, line);
  // The config contains a comma, so it must be quoted.
  EXPECT_NE(line.find("\"loss=dice, lr=0.0001\""), std::string::npos);
  EXPECT_NE(line.find("TERMINATED,7,2,1,0,0.91"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(ReportTest, TuneTableHandlesMissingMetric) {
  ray::TuneResult result;
  ray::Trial silent;
  silent.id = 0;
  silent.status = ray::TrialStatus::kTerminated;
  result.trials = {silent};
  const std::string table = tune_table(result);
  EXPECT_NE(table.find("-"), std::string::npos);
}

}  // namespace
}  // namespace dmis::core
