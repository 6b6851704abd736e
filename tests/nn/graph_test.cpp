#include "nn/graph.hpp"

#include <gtest/gtest.h>

#include "nn/layers/activations.hpp"
#include "nn/layers/batchnorm.hpp"
#include "nn/layers/concat.hpp"
#include "nn/layers/conv3d.hpp"
#include "tensor/rng.hpp"

namespace dmis::nn {
namespace {

// A module computing y = 2x, used to make graph arithmetic predictable.
class Doubler final : public Module {
 public:
  std::string type() const override { return "Doubler"; }
  NDArray forward(std::span<const NDArray* const> inputs, bool) override {
    NDArray out = *inputs[0];
    out.scale_(2.0F);
    return out;
  }
  std::vector<NDArray> backward(std::span<const NDArray* const> inputs,
                                const NDArray& out,
                                const NDArray& go) override {
    // The graph hands back the forward's own input and output.
    EXPECT_EQ(inputs.size(), 1U);
    for (int64_t i = 0; i < out.numel(); ++i) {
      EXPECT_EQ(out[i], 2.0F * (*inputs[0])[i]);
    }
    NDArray gi = go;
    gi.scale_(2.0F);
    std::vector<NDArray> v;
    v.push_back(std::move(gi));
    return v;
  }
};

// y = a + b, for multi-input graph topology tests.
class Adder final : public Module {
 public:
  std::string type() const override { return "Adder"; }
  int arity() const override { return 2; }
  NDArray forward(std::span<const NDArray* const> inputs, bool) override {
    NDArray out = *inputs[0];
    out.add_(*inputs[1]);
    return out;
  }
  std::vector<NDArray> backward(std::span<const NDArray* const>,
                                const NDArray&, const NDArray& go) override {
    std::vector<NDArray> v;
    v.push_back(go);
    v.push_back(go);
    return v;
  }
};

TEST(GraphTest, LinearChainForward) {
  Graph g;
  g.add_input("x");
  g.add("d1", std::make_unique<Doubler>(), {"x"});
  g.add("d2", std::make_unique<Doubler>(), {"d1"});
  g.set_output("d2");
  NDArray x(Shape{3}, 1.0F);
  const NDArray& y = g.forward({{"x", &x}}, true);
  EXPECT_FLOAT_EQ(y[0], 4.0F);
}

TEST(GraphTest, BackwardThroughChain) {
  Graph g;
  g.add_input("x");
  g.add("d1", std::make_unique<Doubler>(), {"x"});
  g.add("d2", std::make_unique<Doubler>(), {"d1"});
  g.set_output("d2");
  NDArray x(Shape{2}, 1.0F);
  (void)g.forward({{"x", &x}}, true);
  NDArray go(Shape{2}, 1.0F);
  g.backward(go);
  EXPECT_FLOAT_EQ(g.input_grad("x")[0], 4.0F);
}

TEST(GraphTest, DiamondAccumulatesGradients) {
  // x -> d1 -> add; x -> d2 -> add. dy/dx = 2 + 2 = 4.
  Graph g;
  g.add_input("x");
  g.add("d1", std::make_unique<Doubler>(), {"x"});
  g.add("d2", std::make_unique<Doubler>(), {"x"});
  g.add("sum", std::make_unique<Adder>(), {"d1", "d2"});
  g.set_output("sum");
  NDArray x(Shape{2}, 3.0F);
  const NDArray& y = g.forward({{"x", &x}}, true);
  EXPECT_FLOAT_EQ(y[0], 12.0F);
  NDArray go(Shape{2}, 1.0F);
  g.backward(go);
  EXPECT_FLOAT_EQ(g.input_grad("x")[0], 4.0F);
}

TEST(GraphTest, SkipConnectionTopology) {
  // The U-Net pattern: a node consumed both downstream and via a skip.
  Graph g;
  g.add_input("x");
  g.add("a", std::make_unique<Doubler>(), {"x"});
  g.add("b", std::make_unique<Doubler>(), {"a"});
  g.add("skip_sum", std::make_unique<Adder>(), {"a", "b"});
  g.set_output("skip_sum");
  NDArray x(Shape{1}, 1.0F);
  const NDArray& y = g.forward({{"x", &x}}, true);
  EXPECT_FLOAT_EQ(y[0], 6.0F);  // 2x + 4x
  NDArray go(Shape{1}, 1.0F);
  g.backward(go);
  EXPECT_FLOAT_EQ(g.input_grad("x")[0], 6.0F);
}

TEST(GraphTest, BackwardMultiSeedsSeveralNodes) {
  // x -> d1 -> d2 (output). Seeding both d1 and d2 must accumulate:
  // dL/dx = 2 * (seed_d1) + 4 * (seed_d2).
  Graph g;
  g.add_input("x");
  g.add("d1", std::make_unique<Doubler>(), {"x"});
  g.add("d2", std::make_unique<Doubler>(), {"d1"});
  g.set_output("d2");
  NDArray x(Shape{2}, 1.0F);
  (void)g.forward({{"x", &x}}, true);
  NDArray seed1(Shape{2}, 1.0F);
  NDArray seed2(Shape{2}, 1.0F);
  g.backward_multi({{"d1", &seed1}, {"d2", &seed2}});
  EXPECT_FLOAT_EQ(g.input_grad("x")[0], 6.0F);
}

TEST(GraphTest, BackwardMultiSeedAccumulatesWithDownstreamGrad) {
  // Seeding an intermediate node that ALSO receives gradient from its
  // consumer (the pipeline-parallel skip-connection case).
  Graph g;
  g.add_input("x");
  g.add("a", std::make_unique<Doubler>(), {"x"});
  g.add("b", std::make_unique<Doubler>(), {"a"});
  g.set_output("b");
  NDArray x(Shape{1}, 1.0F);
  (void)g.forward({{"x", &x}}, true);
  NDArray seed_a(Shape{1}, 3.0F);   // boundary grad arriving at 'a'
  NDArray seed_b(Shape{1}, 1.0F);   // output grad
  g.backward_multi({{"a", &seed_a}, {"b", &seed_b}});
  // grad at a = 3 (seed) + 2 (from b) = 5; dL/dx = 2 * 5 = 10.
  EXPECT_FLOAT_EQ(g.input_grad("x")[0], 10.0F);
}

TEST(GraphTest, BackwardMultiRejectsBadSeeds) {
  Graph g;
  g.add_input("x");
  g.add("d", std::make_unique<Doubler>(), {"x"});
  g.set_output("d");
  NDArray x(Shape{2}, 1.0F);
  (void)g.forward({{"x", &x}}, true);
  EXPECT_THROW(g.backward_multi({}), InvalidArgument);
  NDArray wrong(Shape{3}, 1.0F);
  EXPECT_THROW(g.backward_multi({{"d", &wrong}}), InvalidArgument);
  EXPECT_THROW(g.backward_multi({{"d", nullptr}}), InvalidArgument);
  NDArray ok(Shape{2}, 1.0F);
  EXPECT_THROW(g.backward_multi({{"nope", &ok}}), InvalidArgument);
}

// The graph owns the activations, so it also owns the precondition that
// backward follows a training forward: an inference forward does not
// prepare one, even after an earlier training forward.
TEST(GraphTest, BackwardAfterInferenceForwardThrows) {
  Graph g;
  g.add_input("x");
  g.add("d", std::make_unique<Doubler>(), {"x"});
  g.set_output("d");
  NDArray x(Shape{2}, 1.0F);
  const NDArray go(g.forward({{"x", &x}}, false).shape(), 1.0F);
  EXPECT_THROW(g.backward(go), InvalidArgument);
  (void)g.forward({{"x", &x}}, true);
  (void)g.forward({{"x", &x}}, false);
  EXPECT_THROW(g.backward(go), InvalidArgument);
  EXPECT_THROW(g.backward_multi({{"d", &go}}), InvalidArgument);
  (void)g.forward({{"x", &x}}, true);
  EXPECT_NO_THROW(g.backward(go));
}

TEST(GraphTest, BackwardWithoutForwardThrows) {
  Graph g;
  g.add_input("x");
  g.add("d", std::make_unique<Doubler>(), {"x"});
  g.set_output("d");
  const NDArray go(Shape{2}, 1.0F);
  EXPECT_THROW(g.backward(go), InvalidArgument);
  // A forward that failed part-way leaves nothing to differentiate either.
  EXPECT_THROW(g.forward({}, true), InvalidArgument);
  EXPECT_THROW(g.backward(go), InvalidArgument);
}

TEST(GraphTest, CheckpointParamsIncludeState) {
  Graph g;
  Rng rng(1);
  g.add_input("x");
  g.add("conv", std::make_unique<Conv3d>(1, 1, 1, 1, 0, rng), {"x"});
  g.add("bn", std::make_unique<nn::BatchNorm>(1), {"conv"});
  g.set_output("bn");
  const auto trainable = g.params();
  const auto checkpoint = g.checkpoint_params();
  EXPECT_EQ(trainable.size(), 4U);   // conv w/b + bn gamma/beta
  EXPECT_EQ(checkpoint.size(), 6U);  // + running mean/var
  bool has_running_mean = false;
  for (const auto& p : checkpoint) {
    has_running_mean |= p.name == "bn.running_mean";
  }
  EXPECT_TRUE(has_running_mean);
}

TEST(GraphTest, RejectsUnknownInput) {
  Graph g;
  g.add_input("x");
  EXPECT_THROW(g.add("d", std::make_unique<Doubler>(), {"nope"}),
               InvalidArgument);
}

TEST(GraphTest, RejectsDuplicateName) {
  Graph g;
  g.add_input("x");
  EXPECT_THROW(g.add_input("x"), InvalidArgument);
  g.add("d", std::make_unique<Doubler>(), {"x"});
  EXPECT_THROW(g.add("d", std::make_unique<Doubler>(), {"x"}),
               InvalidArgument);
}

TEST(GraphTest, RejectsArityMismatch) {
  Graph g;
  g.add_input("x");
  EXPECT_THROW(g.add("sum", std::make_unique<Adder>(), {"x"}),
               InvalidArgument);
}

TEST(GraphTest, MissingFeedThrows) {
  Graph g;
  g.add_input("x");
  g.add("d", std::make_unique<Doubler>(), {"x"});
  g.set_output("d");
  EXPECT_THROW(g.forward({}, true), InvalidArgument);
}

TEST(GraphTest, ParamsArePrefixed) {
  Graph g;
  Rng rng(1);
  g.add_input("x");
  g.add("conv", std::make_unique<Conv3d>(1, 1, 1, 1, 0, rng), {"x"});
  g.set_output("conv");
  const auto params = g.params();
  ASSERT_EQ(params.size(), 2U);
  EXPECT_EQ(params[0].name, "conv.weight");
  EXPECT_EQ(params[1].name, "conv.bias");
  EXPECT_EQ(g.num_params(), 2);
}

TEST(GraphTest, NodeOutputAccessible) {
  Graph g;
  g.add_input("x");
  g.add("d", std::make_unique<Doubler>(), {"x"});
  g.set_output("d");
  NDArray x(Shape{1}, 5.0F);
  (void)g.forward({{"x", &x}}, true);
  EXPECT_FLOAT_EQ(g.node_output("x")[0], 5.0F);
  EXPECT_FLOAT_EQ(g.node_output("d")[0], 10.0F);
}

TEST(GraphTest, GradReadyHookFiresOncePerParamInBackwardOrder) {
  Rng rng(3);
  Graph g;
  g.add_input("x");
  g.add("c1", std::make_unique<Conv3d>(1, 2, 1, 1, 0, rng), {"x"});
  g.add("c2", std::make_unique<Conv3d>(2, 1, 1, 1, 0, rng), {"c1"});
  g.set_output("c2");

  std::vector<std::string> ready;
  g.set_grad_ready_hook([&](const Param& p) {
    EXPECT_NE(p.value, nullptr);
    EXPECT_NE(p.grad, nullptr);
    EXPECT_EQ(p.value->shape(), p.grad->shape());
    ready.push_back(p.name);
  });

  NDArray x(Shape{1, 1, 2, 2, 2}, 1.0F);
  (void)g.forward({{"x", &x}}, true);
  NDArray go(Shape{1, 1, 2, 2, 2}, 1.0F);
  g.backward(go);

  // Reverse node order (c2 before c1), names matching Graph::params(),
  // each parameter exactly once.
  ASSERT_EQ(ready.size(), 4U);
  EXPECT_EQ(ready[0], "c2.weight");
  EXPECT_EQ(ready[1], "c2.bias");
  EXPECT_EQ(ready[2], "c1.weight");
  EXPECT_EQ(ready[3], "c1.bias");

  // A second pass fires again; removing the hook silences it.
  (void)g.forward({{"x", &x}}, true);
  g.backward(go);
  EXPECT_EQ(ready.size(), 8U);
  g.set_grad_ready_hook(nullptr);
  (void)g.forward({{"x", &x}}, true);
  g.backward(go);
  EXPECT_EQ(ready.size(), 8U);
}

}  // namespace
}  // namespace dmis::nn
