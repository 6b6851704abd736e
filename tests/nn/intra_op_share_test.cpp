// A rank's intra-op share changes how many chunks each parallel_for
// splits into, never the numbers: forward and backward of the U-Nets the
// training benchmarks run are bitwise equal at shares 1, 2 and the whole
// pool, across batch and instance norm, max-pooling and the three conv
// kernels (implicit GEMM forward and weight gradient, fused col2im GEMM).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "nn/unet3d.hpp"
#include "tensor/rng.hpp"
#include "tensor/thread_pool.hpp"

namespace dmis::nn {
namespace {

struct NetCase {
  const char* name;
  int64_t base_filters;
  Shape input;
  NormKind norm;
};

struct Pass {
  std::vector<float> output;
  std::vector<std::vector<float>> grads;
};

std::vector<float> copy_of(const NDArray& a) {
  return std::vector<float>(a.data(), a.data() + a.numel());
}

// One forward + backward on a fresh thread whose share is `share`.
Pass run_at_share(const NetCase& c, int share) {
  Pass pass;
  std::thread worker([&] {
    set_intra_op_share(share);
    UNet3dOptions opts;
    opts.in_channels = c.input.dim(1);
    opts.out_channels = 1;
    opts.base_filters = c.base_filters;
    opts.depth = 3;
    opts.norm = c.norm;
    opts.seed = 7;
    UNet3d net(opts);
    Rng rng(13);
    NDArray input(c.input);
    for (int64_t i = 0; i < input.numel(); ++i) {
      input[i] = static_cast<float>(rng.normal());
    }
    const NDArray& out = net.forward(input, /*training=*/true);
    pass.output = copy_of(out);
    NDArray grad_out(out.shape());
    for (int64_t i = 0; i < grad_out.numel(); ++i) {
      grad_out[i] = static_cast<float>(rng.normal());
    }
    net.backward(grad_out);
    for (const Param& p : net.params()) pass.grads.push_back(copy_of(*p.grad));
  });
  worker.join();
  return pass;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

class IntraOpShareInvariance : public ::testing::TestWithParam<NetCase> {};

// Share 2 splits every conv's voxels (or taps) into two chunks, the
// whole pool into as many as it has workers.
TEST_P(IntraOpShareInvariance, ForwardAndGradientsAreBitwiseEqual) {
  const NetCase& c = GetParam();
  const Pass inline_pass = run_at_share(c, 1);
  for (const int share : {2, ThreadPool::global().size()}) {
    const Pass wide_pass = run_at_share(c, share);
    EXPECT_TRUE(bitwise_equal(inline_pass.output, wide_pass.output))
        << "share " << share;
    ASSERT_EQ(inline_pass.grads.size(), wide_pass.grads.size());
    for (size_t i = 0; i < inline_pass.grads.size(); ++i) {
      EXPECT_TRUE(bitwise_equal(inline_pass.grads[i], wide_pass.grads[i]))
          << "share " << share << ", parameter " << i;
    }
  }
}

// train_fullvol: 4 filters on 16x32x32 volumes; train_widepatch: 24
// filters on 8x8x8 patches. Both with 4 modalities, depth 3, and a
// batch of 2 so the norms reduce over more than one sample.
INSTANTIATE_TEST_SUITE_P(
    BenchNets, IntraOpShareInvariance,
    ::testing::Values(
        NetCase{"fullvol_batch", 4, Shape{2, 4, 16, 32, 32}, NormKind::kBatch},
        NetCase{"fullvol_instance", 4, Shape{2, 4, 16, 32, 32},
                NormKind::kInstance},
        NetCase{"widepatch_batch", 24, Shape{2, 4, 8, 8, 8}, NormKind::kBatch},
        NetCase{"widepatch_instance", 24, Shape{2, 4, 8, 8, 8},
                NormKind::kInstance}),
    [](const ::testing::TestParamInfo<NetCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace dmis::nn
