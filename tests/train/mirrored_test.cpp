#include "train/mirrored.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <any>
#include <cmath>
#include <set>
#include <string_view>

#include "comm/communicator.hpp"
#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "raylite/raylite.hpp"
#include "tensor/rng.hpp"
#include "tensor/thread_pool.hpp"
#include "train/grad_bucketer.hpp"

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

nn::UNet3dOptions tiny_model(bool batch_norm) {
  nn::UNet3dOptions opts;
  opts.in_channels = 1;
  opts.base_filters = 2;
  opts.depth = 2;
  opts.seed = 11;
  opts.batch_norm = batch_norm;
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

// The mirrored-variable invariant: without batch norm, R-replica
// training on global batch B must match single-device training on the
// same batches (identical seeds, lr scaling off).
TEST(MirroredStrategyTest, EquivalentToSingleDeviceWithoutBatchNorm) {
  const auto examples = make_examples(8, 3);

  // Single device.
  nn::UNet3d single(tiny_model(false));
  TrainOptions topt;
  topt.epochs = 3;
  topt.lr = 1e-3;
  Trainer trainer(single, topt);
  data::BatchStream train_a(data::from_examples(examples), 4);
  trainer.fit(train_a, nullptr);

  // Two mirrored replicas, same global batch, unscaled lr.
  MirroredOptions mopt;
  mopt.num_replicas = 2;
  mopt.train = topt;
  mopt.scale_lr = false;
  MirroredStrategy mirrored(tiny_model(false), mopt);
  data::BatchStream train_b(data::from_examples(examples), 4);
  mirrored.fit(train_b, nullptr);

  const auto wa = flat_params(single);
  const auto wb = flat_params(mirrored.model());
  ASSERT_EQ(wa.size(), wb.size());
  for (size_t i = 0; i < wa.size(); ++i) {
    ASSERT_NEAR(wa[i], wb[i], 2e-4F) << "param element " << i;
  }
}

TEST(MirroredStrategyTest, ReplicasStayIdentical) {
  MirroredOptions mopt;
  mopt.num_replicas = 3;
  mopt.train.epochs = 2;
  mopt.train.lr = 1e-3;
  MirroredStrategy mirrored(tiny_model(true), mopt);
  data::BatchStream train(data::from_examples(make_examples(6, 4)), 3);
  mirrored.fit(train, nullptr);
  // All replicas applied identical averaged gradients with identical
  // optimizer state, so trainable parameters match bit-for-bit even
  // though batch-norm statistics were computed per replica shard.
  ASSERT_EQ(mirrored.world_size(), 3);
  const auto reference = flat_params(mirrored.replica(0));
  for (int i = 1; i < mirrored.world_size(); ++i) {
    const auto params = flat_params(mirrored.replica(i));
    ASSERT_EQ(params.size(), reference.size());
    for (size_t k = 0; k < params.size(); ++k) {
      ASSERT_EQ(params[k], reference[k])
          << "replica " << i << " param element " << k;
    }
  }
}

TEST(MirroredStrategyTest, DeterministicAcrossRuns) {
  const auto run_once = [] {
    MirroredOptions mopt;
    mopt.num_replicas = 2;
    mopt.train.epochs = 2;
    mopt.train.lr = 1e-3;
    MirroredStrategy mirrored(tiny_model(false), mopt);
    data::BatchStream train(data::from_examples(make_examples(4, 5)), 2);
    mirrored.fit(train, nullptr);
    return flat_params(mirrored.model());
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(MirroredStrategyTest, RaggedBatchHandled) {
  // 5 examples, global batch 4, 3 replicas: final batch of 1 leaves two
  // replicas idle; training must stay exact (no NaNs, loss finite).
  MirroredOptions mopt;
  mopt.num_replicas = 3;
  mopt.train.epochs = 2;
  mopt.train.lr = 1e-3;
  MirroredStrategy mirrored(tiny_model(true), mopt);
  data::BatchStream train(data::from_examples(make_examples(5, 6)), 4);
  const TrainReport report = mirrored.fit(train, nullptr);
  ASSERT_EQ(report.history.size(), 2U);
  EXPECT_EQ(report.history[0].steps, 2);  // ceil(5/4)
  EXPECT_TRUE(std::isfinite(report.history.back().train_loss));
}

TEST(MirroredStrategyTest, LrScalingRule) {
  MirroredOptions mopt;
  mopt.num_replicas = 4;
  mopt.train.lr = 1e-4;
  MirroredStrategy scaled(tiny_model(false), mopt);
  EXPECT_DOUBLE_EQ(scaled.effective_lr(), 4e-4);
  mopt.scale_lr = false;
  MirroredStrategy unscaled(tiny_model(false), mopt);
  EXPECT_DOUBLE_EQ(unscaled.effective_lr(), 1e-4);
}

TEST(MirroredStrategyTest, ValidationUsesReplicaZero) {
  MirroredOptions mopt;
  mopt.num_replicas = 2;
  mopt.train.epochs = 1;
  MirroredStrategy mirrored(tiny_model(true), mopt);
  data::BatchStream train(data::from_examples(make_examples(4, 7)), 2);
  data::BatchStream val(data::from_examples(make_examples(2, 8)), 2);
  const TrainReport report = mirrored.fit(train, &val);
  ASSERT_TRUE(report.history.front().val_dice.has_value());
  EXPECT_GE(*report.history.front().val_dice, 0.0);
  EXPECT_LE(*report.history.front().val_dice, 1.0);
}

TEST(MirroredStrategyTest, SingleReplicaDegeneratesToTrainer) {
  MirroredOptions mopt;
  mopt.num_replicas = 1;
  mopt.train.epochs = 2;
  mopt.train.lr = 1e-3;
  MirroredStrategy mirrored(tiny_model(false), mopt);
  data::BatchStream train_a(data::from_examples(make_examples(4, 9)), 2);
  mirrored.fit(train_a, nullptr);

  nn::UNet3d single(tiny_model(false));
  TrainOptions topt;
  topt.epochs = 2;
  topt.lr = 1e-3;
  Trainer trainer(single, topt);
  data::BatchStream train_b(data::from_examples(make_examples(4, 9)), 2);
  trainer.fit(train_b, nullptr);

  const auto wa = flat_params(mirrored.model());
  const auto wb = flat_params(single);
  for (size_t i = 0; i < wa.size(); ++i) ASSERT_EQ(wa[i], wb[i]);
}

// Bucket layout must not change the trained weights beyond float
// reassociation: a tiny cap (many buckets, launched eagerly
// mid-backward) matches one bucket holding the whole model within 1e-6
// on seeded multi-rank training with a ragged final batch.
class BucketedStrategyParity : public ::testing::TestWithParam<int> {};

TEST_P(BucketedStrategyParity, SmallBucketsMatchSingleBucket) {
  const int replicas = GetParam();
  size_t model_bytes = 0;
  nn::UNet3d probe(tiny_model(false));
  for (const nn::Param& p : probe.params()) {
    model_bytes += static_cast<size_t>(p.grad->numel()) * sizeof(float);
  }
  auto comms = comm::make_group(1);
  ASSERT_EQ(GradBucketer(probe.params(), comms[0], model_bytes).num_buckets(),
            1U);
  ASSERT_GT(GradBucketer(probe.params(), comms[0], 2048).num_buckets(), 2U);

  const auto run_with_buckets = [&](size_t bucket_bytes) {
    MirroredOptions mopt;
    mopt.num_replicas = replicas;
    mopt.train.epochs = 2;
    mopt.train.lr = 1e-3;
    mopt.bucket_bytes = bucket_bytes;
    MirroredStrategy mirrored(tiny_model(false), mopt);
    data::BatchStream train(
        data::from_examples(make_examples(2 * replicas + 1, 21)), replicas);
    mirrored.fit(train, nullptr);  // ragged final batch -> idle replicas
    return flat_params(mirrored.model());
  };
  const auto small = run_with_buckets(2048);
  const auto single = run_with_buckets(model_bytes);
  ASSERT_EQ(small.size(), single.size());
  for (size_t i = 0; i < small.size(); ++i) {
    ASSERT_NEAR(small[i], single[i], 1e-6F) << "param element " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BucketedStrategyParity,
                         ::testing::Values(2, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "replicas" + std::to_string(info.param);
                         });

// Rank workers live as long as their group: every train.backward span
// of a two-epoch fit comes from one of exactly `world` threads.
TEST(MirroredStrategyTest, RankThreadsAreReusedAcrossSteps) {
  obs::Tracer& tracer = obs::Tracer::instance();
  for (const int world : {2, 3}) {
    tracer.clear();
    tracer.enable();
    MirroredOptions mopt;
    mopt.num_replicas = world;
    mopt.train.epochs = 2;
    mopt.train.lr = 1e-3;
    MirroredStrategy mirrored(tiny_model(false), mopt);
    data::BatchStream train(data::from_examples(make_examples(12, 5)), world);
    mirrored.fit(train, nullptr);
    tracer.disable();
    std::set<int32_t> tids;
    int spans = 0;
    for (const obs::TraceEvent& ev : tracer.events()) {
      if (std::string_view(ev.name) != "train.backward") continue;
      tids.insert(ev.tid);
      ++spans;
    }
    tracer.clear();
    EXPECT_EQ(spans, 2 * 12) << "world " << world;  // one per sample
    EXPECT_EQ(tids.size(), static_cast<size_t>(world)) << "world " << world;
  }
}

// The core budget nests: a world-2 strategy inside one of two RayLite
// slots gives each rank max(1, global / 2 / 2) cores.
TEST(MirroredStrategyTest, RanksSplitTheirTuneSlotsShare) {
  const int global = ThreadPool::global().size();
  auto& reg = obs::MetricsRegistry::instance();
  ray::RayLite cluster(ray::Resources{2, 2}, 2);
  EXPECT_EQ(reg.gauge("tune.intra_op_threads").value(),
            std::max(1, global / 2));
  ray::Future slot = cluster.submit(ray::Resources{1, 1}, [&]() -> std::any {
    const int slot_share = intra_op_share();
    MirroredOptions mopt;
    mopt.num_replicas = 2;
    mopt.train.epochs = 1;
    mopt.train.lr = 1e-3;
    MirroredStrategy mirrored(tiny_model(false), mopt);
    data::BatchStream train(data::from_examples(make_examples(4, 5)), 2);
    mirrored.fit(train, nullptr);
    const double rank_share = reg.gauge("train.intra_op_threads").value();
    return std::pair<int, double>(slot_share, rank_share);
  });
  const auto [slot_share, rank_share] =
      std::any_cast<std::pair<int, double>>(slot.get());
  EXPECT_EQ(slot_share, std::max(1, global / 2));
  EXPECT_EQ(rank_share, std::max(1, global / 2 / 2));
}

TEST(MirroredStrategyTest, RejectsBadReplicaCount) {
  MirroredOptions mopt;
  mopt.num_replicas = 0;
  EXPECT_THROW(MirroredStrategy(tiny_model(false), mopt), InvalidArgument);
}

}  // namespace
}  // namespace dmis::train
