#include "core/report.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "common/check.hpp"

namespace dmis::core {

void save_study_csv(const std::string& path, const StudyResult& result) {
  std::ofstream os(path, std::ios::trunc);
  DMIS_CHECK_IO(os.good(), "cannot open '" << path << "' for writing");
  os << "strategy,gpus,mean_s,min_s,max_s,speedup\n";
  const auto dump = [&](const char* name,
                        const std::vector<StudyCell>& cells) {
    for (const StudyCell& c : cells) {
      os << name << ',' << c.gpus << ',' << std::fixed
         << std::setprecision(1) << c.mean_seconds << ',' << c.min_seconds
         << ',' << c.max_seconds << ',' << std::setprecision(3) << c.speedup
         << '\n';
    }
  };
  dump("data_parallel", result.data_parallel);
  dump("experiment_parallel", result.experiment_parallel);
  DMIS_CHECK_IO(os.good(), "write failed for '" << path << "'");
}

void save_history_csv(const std::string& path,
                      const train::TrainReport& report) {
  std::ofstream os(path, std::ios::trunc);
  DMIS_CHECK_IO(os.good(), "cannot open '" << path << "' for writing");
  os << "epoch,steps,train_loss,val_dice,lr\n";
  for (const train::EpochStats& e : report.history) {
    os << e.epoch << ',' << e.steps << ',' << std::setprecision(6)
       << e.train_loss << ',';
    if (e.val_dice.has_value()) os << *e.val_dice;
    os << ',' << e.lr << '\n';
  }
  DMIS_CHECK_IO(os.good(), "write failed for '" << path << "'");
}

std::string tune_table(const ray::TuneResult& result,
                       const std::string& metric) {
  size_t config_width = 6;
  for (const ray::Trial& t : result.trials) {
    config_width = std::max(config_width, ray::param_set_str(t.params).size());
  }
  std::ostringstream os;
  os << std::left << std::setw(static_cast<int>(config_width) + 2) << "config"
     << std::setw(12) << "status" << std::setw(7) << "iters" << std::setw(10)
     << "attempts" << std::setw(11) << "transient" << std::setw(11)
     << "straggler" << metric << '\n';
  for (const ray::Trial& t : result.trials) {
    os << std::left << std::setw(static_cast<int>(config_width) + 2)
       << ray::param_set_str(t.params) << std::setw(12)
       << ray::trial_status_name(t.status) << std::setw(7) << t.iterations
       << std::setw(10) << t.attempts << std::setw(11)
       << t.transient_errors.size();
    // Max/median inter-epoch time ratio; "-" until enough reports.
    if (t.straggler_ratio > 0.0) {
      std::ostringstream ratio;
      ratio << std::fixed << std::setprecision(2) << t.straggler_ratio;
      os << std::setw(11) << ratio.str();
    } else {
      os << std::setw(11) << "-";
    }
    const auto it = t.last_metrics.find(metric);
    if (it != t.last_metrics.end()) {
      os << std::fixed << std::setprecision(4) << it->second;
    } else if (t.status == ray::TrialStatus::kFailed) {
      os << "error: " << t.error;
    } else {
      os << "-";
    }
    os << '\n';
  }
  return os.str();
}

void save_tune_csv(const std::string& path, const ray::TuneResult& result,
                   const std::string& metric) {
  std::ofstream os(path, std::ios::trunc);
  DMIS_CHECK_IO(os.good(), "cannot open '" << path << "' for writing");
  os << "id,config,status,iterations,attempts,transient_errors,"
        "straggler_ratio,"
     << metric << '\n';
  for (const ray::Trial& t : result.trials) {
    os << t.id << ",\"" << ray::param_set_str(t.params) << "\","
       << ray::trial_status_name(t.status) << ',' << t.iterations << ','
       << t.attempts << ',' << t.transient_errors.size() << ','
       << std::setprecision(4) << t.straggler_ratio << ',';
    const auto it = t.last_metrics.find(metric);
    if (it != t.last_metrics.end()) {
      os << std::setprecision(6) << it->second;
    }
    os << '\n';
  }
  DMIS_CHECK_IO(os.good(), "write failed for '" << path << "'");
}

}  // namespace dmis::core
