// A2 — the gradient-synchronization primitive behind data parallelism.
// Measures the real chunked ring allreduce over in-process ranks on the
// U-Net's gradient payload (409,657 floats, the paper model) across
// group sizes and payload sizes, back-to-back ring collectives on
// persistent rank threads, and the bucketed vs per-tensor step gradient
// sync that verify.sh gates. The gradient-sync pair drives its ranks from a
// ThreadPool built once per run, one closure per rank per iteration,
// as MirroredStrategy does, so thread start-up stays out of the ratio.
#include <benchmark/benchmark.h>

#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "comm/communicator.hpp"
#include "nn/unet3d.hpp"
#include "tensor/thread_pool.hpp"
#include "train/grad_bucketer.hpp"

namespace {

using namespace dmis;

constexpr int64_t kUnetParams = 409657;

void run_ranks(int ranks, const std::function<void(int, comm::Communicator&)>& body) {
  auto comms = comm::make_group(ranks);
  std::vector<std::thread> threads;
  for (int r = 0; r < ranks; ++r) {
    threads.emplace_back([&, r] { body(r, comms[static_cast<size_t>(r)]); });
  }
  for (auto& t : threads) t.join();
}

void BM_RingAllreduceUnetGrads(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  std::vector<std::vector<float>> bufs(static_cast<size_t>(ranks),
                                       std::vector<float>(kUnetParams, 1.0F));
  for (auto _ : state) {
    run_ranks(ranks, [&](int r, comm::Communicator& comm) {
      comm.all_reduce_sum(bufs[static_cast<size_t>(r)],
                          1.0F / static_cast<float>(ranks));
    });
  }
  state.SetBytesProcessed(state.iterations() * ranks *
                          kUnetParams * static_cast<int64_t>(sizeof(float)));
}
BENCHMARK(BM_RingAllreduceUnetGrads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_RingAllreducePayloadSweep(benchmark::State& state) {
  const int ranks = 4;
  const int64_t payload = state.range(0);
  std::vector<std::vector<float>> bufs(
      static_cast<size_t>(ranks),
      std::vector<float>(static_cast<size_t>(payload), 1.0F));
  for (auto _ : state) {
    run_ranks(ranks, [&](int r, comm::Communicator& comm) {
      comm.all_reduce_sum(bufs[static_cast<size_t>(r)]);
    });
  }
  state.SetBytesProcessed(state.iterations() * ranks * payload *
                          static_cast<int64_t>(sizeof(float)));
}
BENCHMARK(BM_RingAllreducePayloadSweep)
    ->Arg(1 << 10)
    ->Arg(1 << 14)
    ->Arg(1 << 18)
    ->Arg(1 << 22)
    ->Unit(benchmark::kMillisecond);

// --- Back-to-back ring collectives on persistent rank threads -------
//
// Four persistent rank threads (benchmark's own ->Threads(4), one rank
// per benchmark thread — no per-iteration spawn jitter, which at 4 KiB
// payloads is the same order as the collectives being timed), sixteen
// back-to-back collectives per iteration.

void BM_RingAllreduceBackToBack(benchmark::State& state) {
  const int64_t payload = state.range(0);
  constexpr int kBackToBack = 16;
  // Shared across the four benchmark threads; thread 0 builds it before
  // entering the loop and the loop-entry barrier publishes it, the
  // loop-exit barrier makes the teardown safe.
  static std::vector<comm::Communicator>* comms = nullptr;
  static std::vector<std::vector<float>>* bufs = nullptr;
  if (state.thread_index() == 0) {
    comms = new std::vector<comm::Communicator>(
        comm::make_group(state.threads()));
    bufs = new std::vector<std::vector<float>>(
        static_cast<size_t>(state.threads()),
        std::vector<float>(static_cast<size_t>(payload), 0.0F));
  }
  const auto rank = static_cast<size_t>(state.thread_index());
  for (auto _ : state) {
    for (int k = 0; k < kBackToBack; ++k) {
      (*comms)[rank].all_reduce_sum((*bufs)[rank]);
    }
  }
  state.SetBytesProcessed(state.iterations() * kBackToBack * payload *
                          static_cast<int64_t>(sizeof(float)));
  if (state.thread_index() == 0) {
    delete comms;
    delete bufs;
    comms = nullptr;
    bufs = nullptr;
  }
}
BENCHMARK(BM_RingAllreduceBackToBack)
    ->Arg(1 << 12)
    ->Arg(1 << 16)
    ->Arg(1 << 20)
    ->Threads(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// --- Step gradient sync: per-tensor triple pass vs bucketed fused ---
//
// Both run the full U-Net gradient payload, shaped as the model's real
// parameter tensors (66 tensors, 409,657 floats total), through one
// synchronization step per iteration. Per-tensor is the legacy mirrored
// path: scale / blocking allreduce / scale for every tensor. Bucketed is
// the GradBucketer default: pack into ~1 MiB flat buckets, one fused
// async allreduce each, unpack after wait. verify.sh enforces a >= 1.5x
// speedup of bucketed over per-tensor at both group sizes.

const std::vector<int64_t>& unet_grad_sizes() {
  static const std::vector<int64_t> sizes = [] {
    nn::UNet3d model(nn::UNet3dOptions::paper());
    std::vector<int64_t> out;
    for (const nn::Param& p : model.params()) out.push_back(p.value->numel());
    return out;
  }();
  return sizes;
}

/// Per-rank gradient tensors shaped like the U-Net's parameters.
struct RankGrads {
  explicit RankGrads(const std::vector<int64_t>& sizes) {
    values.reserve(sizes.size());
    grads.reserve(sizes.size());
    for (int64_t s : sizes) {
      values.emplace_back(Shape{s}, 0.0F);
      grads.emplace_back(Shape{s}, 1.0F);
    }
    for (size_t i = 0; i < sizes.size(); ++i) {
      params.push_back(nn::Param{"p" + std::to_string(i), &values[i],
                                 &grads[i]});
    }
  }
  std::vector<NDArray> values;
  std::vector<NDArray> grads;
  std::vector<nn::Param> params;
};

void BM_GradSyncPerTensor(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  auto comms = comm::make_group(ranks);
  std::vector<RankGrads> rg;
  for (int r = 0; r < ranks; ++r) rg.emplace_back(unet_grad_sizes());
  const float inv = 1.0F / static_cast<float>(ranks);
  ThreadPool pool(ranks);
  for (auto _ : state) {
    for (int r = 0; r < ranks; ++r) {
      pool.submit([&, r] {
        for (nn::Param& p : rg[static_cast<size_t>(r)].params) {
          p.grad->scale_(1.0F);
          comms[static_cast<size_t>(r)].all_reduce_sum(p.grad->span());
          p.grad->scale_(inv);
        }
      });
    }
    pool.wait_idle();
  }
  state.SetBytesProcessed(state.iterations() * ranks * kUnetParams *
                          static_cast<int64_t>(sizeof(float)));
}
BENCHMARK(BM_GradSyncPerTensor)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_GradSyncBucketed(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  auto comms = comm::make_group(ranks);
  std::vector<RankGrads> rg;
  for (int r = 0; r < ranks; ++r) rg.emplace_back(unet_grad_sizes());
  std::vector<std::unique_ptr<train::GradBucketer>> bucketers;
  for (int r = 0; r < ranks; ++r) {
    bucketers.push_back(std::make_unique<train::GradBucketer>(
        rg[static_cast<size_t>(r)].params, comms[static_cast<size_t>(r)],
        train::GradBucketer::kDefaultBucketBytes));
  }
  const float inv = 1.0F / static_cast<float>(ranks);
  ThreadPool pool(ranks);
  for (auto _ : state) {
    for (int r = 0; r < ranks; ++r) {
      pool.submit([&, r] {
        auto& bucketer = *bucketers[static_cast<size_t>(r)];
        auto& params = rg[static_cast<size_t>(r)].params;
        bucketer.begin_step(1.0F, inv);
        // Ready marks in backward (reverse-registration) order, as the
        // graph hook would deliver them.
        for (size_t i = params.size(); i-- > 0;) {
          bucketer.on_grad_ready(params[i]);
        }
        bucketer.flush();
        bucketer.wait_all();
      });
    }
    pool.wait_idle();
  }
  state.SetBytesProcessed(state.iterations() * ranks * kUnetParams *
                          static_cast<int64_t>(sizeof(float)));
}
BENCHMARK(BM_GradSyncBucketed)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
