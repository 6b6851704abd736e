#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

namespace dmis::core {
namespace {

TEST(ExperimentConfigTest, ParamRoundTrip) {
  ExperimentConfig cfg;
  cfg.lr = 1e-5;
  cfg.loss = "qdice";
  cfg.base_filters = 16;
  cfg.augment = true;
  const ray::ParamSet p = cfg.to_params();
  const ExperimentConfig back = ExperimentConfig::from_params(p);
  EXPECT_DOUBLE_EQ(back.lr, 1e-5);
  EXPECT_EQ(back.loss, "qdice");
  EXPECT_EQ(back.base_filters, 16);
  EXPECT_TRUE(back.augment);
}

TEST(ExperimentConfigTest, SimViewCarriesFields) {
  ExperimentConfig cfg;
  cfg.base_filters = 16;
  cfg.batch_per_replica = 1;
  cfg.augment = true;
  const cluster::SimTrialConfig sim = cfg.to_sim();
  EXPECT_EQ(sim.base_filters, 16);
  EXPECT_EQ(sim.batch_per_replica, 1);
  EXPECT_TRUE(sim.augment);
}

TEST(ExperimentConfigTest, NameIsStable) {
  ExperimentConfig cfg;
  EXPECT_EQ(cfg.name(), "lr1e-04_dice_bf8_aug0_b2");
}

TEST(ExperimentConfigTest, RejectsBadParams) {
  ray::ParamSet p{{"lr", -1.0},
                  {"loss", std::string("dice")},
                  {"base_filters", int64_t{8}},
                  {"augment", false}};
  EXPECT_THROW(ExperimentConfig::from_params(p), InvalidArgument);
  p["lr"] = 1e-4;
  for (const char* loss : {"focal", "bce"}) {
    p["loss"] = std::string(loss);
    EXPECT_THROW(ExperimentConfig::from_params(p), InvalidArgument) << loss;
  }
}

}  // namespace
}  // namespace dmis::core
