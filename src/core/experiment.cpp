#include "core/experiment.hpp"

#include <cstdio>

#include "common/check.hpp"

namespace dmis::core {

ExperimentConfig ExperimentConfig::from_params(const ray::ParamSet& params) {
  ExperimentConfig cfg;
  cfg.lr = ray::param_double(params, "lr");
  cfg.loss = ray::param_str(params, "loss");
  cfg.base_filters = ray::param_int(params, "base_filters");
  cfg.augment = ray::param_bool(params, "augment");
  DMIS_CHECK(cfg.lr > 0.0, "lr must be positive");
  DMIS_CHECK(cfg.loss == "dice" || cfg.loss == "qdice",
             "unknown loss '" << cfg.loss << "'");
  DMIS_CHECK(cfg.base_filters >= 1, "base_filters must be >= 1");
  return cfg;
}

ray::ParamSet ExperimentConfig::to_params() const {
  return ray::ParamSet{{"lr", lr},
                       {"loss", loss},
                       {"base_filters", base_filters},
                       {"augment", augment}};
}

cluster::SimTrialConfig ExperimentConfig::to_sim() const {
  cluster::SimTrialConfig sim;
  sim.lr = lr;
  sim.loss = loss;
  sim.base_filters = base_filters;
  sim.augment = augment;
  sim.batch_per_replica = batch_per_replica;
  return sim;
}

std::string ExperimentConfig::name() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "lr%.0e_%s_bf%lld_aug%d_b%lld", lr,
                loss.c_str(), static_cast<long long>(base_filters),
                augment ? 1 : 0, static_cast<long long>(batch_per_replica));
  return buf;
}

}  // namespace dmis::core
