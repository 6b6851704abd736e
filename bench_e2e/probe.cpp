// One-thread layer probe: times the nn layer on the workload's
// per-replica shape with nothing else running.
#include <functional>

#include "cluster/costmodel.hpp"
#include "harness.hpp"
#include "nn/checkpoint.hpp"
#include "nn/loss.hpp"
#include "nn/optim.hpp"
#include "tensor/rng.hpp"

namespace dmis::bench {
namespace {

constexpr int kWarmups = 3;

// Median wall time of `reps` calls of `timed`, each preceded by an
// untimed `prepare`, after kWarmups untimed rounds.
double median_ms(int reps, const std::function<void()>& prepare,
                 const std::function<void()>& timed) {
  std::vector<double> ms;
  for (int i = 0; i < kWarmups + reps; ++i) {
    if (prepare) prepare();
    const Clock::time_point t0 = Clock::now();
    timed();
    if (i >= kWarmups) ms.push_back(seconds_since(t0) * 1000.0);
  }
  return median(std::move(ms));
}

NDArray random_volume(Rng& rng, int64_t n, int64_t c, int64_t d, int64_t h,
                      int64_t w) {
  NDArray x(Shape{n, c, d, h, w});
  for (int64_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.normal());
  }
  return x;
}

}  // namespace

ProbeResult run_probe(const ProbeSpec& spec, const std::string& work_dir,
                      uint64_t seed, int reps) {
  ProbeResult r;
  Rng rng(seed);
  nn::UNet3d model(spec.model);
  const NDArray x = random_volume(rng, spec.batch, spec.model.in_channels,
                                  spec.depth, spec.height, spec.width);
  NDArray y(Shape{spec.batch, spec.model.out_channels, spec.depth,
                  spec.height, spec.width});
  for (int64_t i = 0; i < y.numel(); ++i) {
    y[i] = rng.uniform() < 0.3 ? 1.0F : 0.0F;
  }
  const std::unique_ptr<nn::Loss> loss = nn::make_loss("dice");
  const std::unique_ptr<nn::Optimizer> optim =
      nn::make_optimizer("adam", model.params(), 1e-4);

  r.fwd_ms = median_ms(reps, nullptr, [&] { model.forward(x, true); });
  NDArray grad;
  r.bwd_ms = median_ms(
      reps,
      [&] {
        optim->zero_grad();
        grad = loss->compute(model.forward(x, true), y).grad;
      },
      [&] { model.backward(grad); });
  r.optim_ms = median_ms(reps, nullptr, [&] { optim->step(); });
  r.checkpoint_save_ms = median_ms(reps, nullptr, [&] {
    nn::save_checkpoint(work_dir + "/probe.ckpt", model.checkpoint_params());
  });

  cluster::ModelShape shape;
  shape.in_channels = spec.model.in_channels;
  shape.out_channels = spec.model.out_channels;
  shape.base_filters = spec.model.base_filters;
  shape.depth = spec.model.depth;
  shape.vol_d = spec.depth;
  shape.vol_h = spec.height;
  shape.vol_w = spec.width;
  r.fwd_gflops = cluster::unet3d_forward_flops(shape) *
                 static_cast<double>(spec.batch) / (r.fwd_ms * 1e6);
  r.samples_per_s = static_cast<double>(spec.batch) * 1000.0 /
                    (r.fwd_ms + r.bwd_ms + r.optim_ms);

  // The serving paths always probe the serving model, so these two
  // numbers mean the same thing on every workload.
  nn::UNet3d serve_net(serve_model_options(seed));
  const NDArray small = random_volume(rng, 1, 4, 16, 24, 24);
  const NDArray large = random_volume(rng, 1, 4, 32, 48, 48);
  r.infer_ms =
      median_ms(reps, nullptr, [&] { nn::infer_padded(serve_net, small); });
  const nn::SlidingWindowOptions window = serve_sliding_window();
  r.window_ms = median_ms(reps, nullptr, [&] {
    nn::infer_sliding_window(serve_net, large, window);
  });
  return r;
}

}  // namespace dmis::bench
