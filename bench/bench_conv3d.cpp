// K1 — kernel microbenchmarks for the layers dominating U-Net step time:
// 3x3x3 convolution forward/backward, transposed convolution, pooling
// and batch norm, at the tile sizes the real (host-scale) backend uses.
//
// Conv benchmarks take the channel count as their argument;
// tools/verify.sh writes the conv cases to BENCH_conv3d.json. End-to-end
// conv cost in a training step is covered by the train_fullvol workload
// of the end-to-end benchmark (bench_e2e/).
#include <benchmark/benchmark.h>

#include "nn/layers/batchnorm.hpp"
#include "nn/layers/conv3d.hpp"
#include "nn/layers/conv_transpose3d.hpp"
#include "nn/layers/maxpool3d.hpp"
#include "tensor/rng.hpp"

namespace {

using namespace dmis;

/// Appends the {4, 8, 16} channel counts.
void ConvArgs(benchmark::internal::Benchmark* b) {
  for (const int64_t c : {4, 8, 16}) b->Arg(c);
}

NDArray random_input(const Shape& shape, uint64_t seed) {
  NDArray t(shape);
  Rng rng(seed);
  for (int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.normal());
  }
  return t;
}

void BM_Conv3dForward(benchmark::State& state) {
  const int64_t c = state.range(0);
  Rng rng(1);
  nn::Conv3d conv(c, c, 3, 1, 1, rng);
  const NDArray in = random_input(Shape{1, c, 16, 16, 16}, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward1(in, true).data());
  }
  // 2 FLOPs per tap per output voxel.
  state.SetItemsProcessed(state.iterations() * 2 * 27 * c * c * 16 * 16 * 16);
}
BENCHMARK(BM_Conv3dForward)->Apply(ConvArgs)->Unit(benchmark::kMillisecond);

void BM_Conv3dForwardStride2(benchmark::State& state) {
  // Encoder downsampling shape: stride 2 halves each output extent.
  const int64_t c = state.range(0);
  Rng rng(1);
  nn::Conv3d conv(c, c, 3, 2, 1, rng);
  const NDArray in = random_input(Shape{1, c, 16, 16, 16}, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward1(in, true).data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * 27 * c * c * 8 * 8 * 8);
}
BENCHMARK(BM_Conv3dForwardStride2)->Apply(ConvArgs)->Unit(benchmark::kMillisecond);

void BM_Conv3dForward1x1x1(benchmark::State& state) {
  // Segmentation-head shape: a plain SGEMM on the activation, no lowering.
  const int64_t c = state.range(0);
  Rng rng(1);
  nn::Conv3d conv(c, 4, 1, 1, 0, rng);
  const NDArray in = random_input(Shape{1, c, 16, 16, 16}, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward1(in, true).data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * c * 4 * 16 * 16 * 16);
}
BENCHMARK(BM_Conv3dForward1x1x1)->Apply(ConvArgs)->Unit(benchmark::kMillisecond);

void BM_Conv3dBackward(benchmark::State& state) {
  // Args: cin, cout, d, h, w of a 3x3x3 "same" convolution.
  const int64_t cin = state.range(0), cout = state.range(1);
  Rng rng(1);
  nn::Conv3d conv(cin, cout, 3, 1, 1, rng);
  const NDArray in = random_input(
      Shape{1, cin, state.range(2), state.range(3), state.range(4)}, 2);
  const NDArray out = conv.forward1(in, true);
  const NDArray grad = random_input(out.shape(), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.backward1(in, out, grad).front().data());
  }
}
BENCHMARK(BM_Conv3dBackward)
    ->ArgNames({"cin", "cout", "d", "h", "w"})
    ->Args({4, 4, 16, 16, 16})
    ->Args({8, 8, 16, 16, 16})
    // The layer shapes of the end-to-end training workloads:
    // train_fullvol (16x32x32 input, 4 base filters) ...
    ->Args({4, 4, 16, 32, 32})
    ->Args({12, 4, 16, 32, 32})
    ->Args({8, 8, 8, 16, 16})
    // ... and train_widepatch (8^3 patches, 24 base filters).
    ->Args({72, 24, 8, 8, 8})
    ->Args({48, 48, 4, 4, 4})
    ->Args({96, 96, 2, 2, 2})
    ->Unit(benchmark::kMillisecond);

void BM_ConvTranspose3dForward(benchmark::State& state) {
  // Args: channels, then the d, h, w of the input (the output doubles).
  const int64_t c = state.range(0);
  Rng rng(1);
  nn::ConvTranspose3d up(c, c, 2, 2, rng);
  const NDArray in = random_input(
      Shape{1, c, state.range(1), state.range(2), state.range(3)}, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(up.forward1(in, true).data());
  }
}
BENCHMARK(BM_ConvTranspose3dForward)
    ->ArgNames({"c", "d", "h", "w"})
    ->Args({8, 8, 8, 8})
    ->Args({16, 8, 8, 8})
    ->Args({16, 4, 8, 8})   // train_fullvol dec2
    ->Args({96, 2, 2, 2})   // train_widepatch dec2
    ->Args({96, 8, 8, 8})
    ->Unit(benchmark::kMillisecond);

void BM_MaxPool3dForward(benchmark::State& state) {
  nn::MaxPool3d pool(2, 2);
  const NDArray in = random_input(Shape{2, 8, 16, 16, 16}, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.forward1(in, true).data());
  }
}
BENCHMARK(BM_MaxPool3dForward)->Unit(benchmark::kMillisecond);

void BM_BatchNormForward(benchmark::State& state) {
  nn::BatchNorm bn(8);
  const NDArray in = random_input(Shape{2, 8, 16, 16, 16}, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bn.forward1(in, true).data());
  }
}
BENCHMARK(BM_BatchNormForward)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
