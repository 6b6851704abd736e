#include "nn/pipelined_unet3d.hpp"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/check.hpp"
#include "nn/layers/activations.hpp"
#include "nn/layers/batchnorm.hpp"
#include "nn/layers/concat.hpp"
#include "nn/layers/conv3d.hpp"
#include "nn/layers/conv_transpose3d.hpp"
#include "nn/layers/maxpool3d.hpp"

namespace dmis::nn {
namespace {

/// conv + norm + relu into `graph`, mirroring UNet3d::conv_block so the
/// RNG consumption order (and therefore the weights) match exactly.
std::string conv_block(Graph& graph, const UNet3dOptions& opts,
                       const std::string& name, const std::string& input,
                       int64_t cin, int64_t cout, Rng& rng) {
  graph.add(name + "_conv", std::make_unique<Conv3d>(cin, cout, 3, 1, 1, rng),
            {input});
  std::string prev = name + "_conv";
  if (opts.norm == NormKind::kBatch) {
    graph.add(name + "_bn", std::make_unique<BatchNorm>(cout), {prev});
    prev = name + "_bn";
  }
  graph.add(name + "_relu", std::make_unique<ReLU>(), {prev});
  return name + "_relu";
}

NDArray slice_batch(const NDArray& batch, int64_t lo, int64_t hi) {
  const Shape& s = batch.shape();
  const int64_t per = batch.numel() / s.n();
  Shape out_shape = s.with_dim(0, hi - lo);
  return NDArray(out_shape,
                 std::span<const float>(batch.data() + lo * per,
                                        static_cast<size_t>((hi - lo) * per)));
}

/// Single-producer single-consumer rendezvous of microbatch indices.
class IndexChannel {
 public:
  void push(int value) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ready_.push_back(value);
    }
    cv_.notify_one();
  }
  int pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return !ready_.empty(); });
    const int value = ready_.front();
    ready_.erase(ready_.begin());
    return value;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<int> ready_;
};

}  // namespace

PipelinedUNet3d::PipelinedUNet3d(const UNet3dOptions& options,
                                 int num_microbatches)
    : opts_(options), num_microbatches_(num_microbatches) {
  DMIS_CHECK(num_microbatches >= 1, "need >= 1 microbatch");
  DMIS_CHECK(options.depth >= 2, "U-Net depth must be >= 2");
  Rng rng(options.seed);

  // Stage 0 — analysis path. Same construction order as UNet3d.
  encoder_.add_input("input");
  std::string prev = "input";
  int64_t prev_c = opts_.in_channels;
  for (int s = 1; s <= opts_.depth; ++s) {
    if (s > 1) {
      encoder_.add("pool" + std::to_string(s - 1),
                   std::make_unique<MaxPool3d>(2, 2), {prev});
      prev = "pool" + std::to_string(s - 1);
    }
    const int64_t f = opts_.filters(s);
    const std::string base = "enc" + std::to_string(s);
    prev = conv_block(encoder_, opts_, base + "a", prev, prev_c, f, rng);
    prev = conv_block(encoder_, opts_, base + "b", prev, f, f, rng);
    if (s < opts_.depth) {
      skip_names_.push_back(prev);
    }
    prev_c = f;
  }
  bottom_name_ = prev;
  encoder_.set_output(prev);  // the bottleneck feature map

  // Stage 1 — synthesis path + head. Boundary tensors become inputs.
  decoder_.add_input("bottom");
  for (int s = 1; s < opts_.depth; ++s) {
    decoder_.add_input("skip" + std::to_string(s));
  }
  prev = "bottom";
  for (int s = opts_.depth - 1; s >= 1; --s) {
    const int64_t f = opts_.filters(s);
    const std::string base = "dec" + std::to_string(s);
    decoder_.add(base + "_up",
                 std::make_unique<ConvTranspose3d>(prev_c, prev_c, 2, 2, rng),
                 {prev});
    decoder_.add(base + "_cat", std::make_unique<Concat>(2),
                 {base + "_up", "skip" + std::to_string(s)});
    prev = conv_block(decoder_, opts_, base + "a", base + "_cat", prev_c + f,
                      f, rng);
    prev = conv_block(decoder_, opts_, base + "b", prev, f, f, rng);
    prev_c = f;
  }
  decoder_.add("head_conv",
               std::make_unique<Conv3d>(prev_c, opts_.out_channels, 1, 1, 0,
                                        rng),
               {prev});
  decoder_.add("head_sigmoid", std::make_unique<Sigmoid>(), {"head_conv"});
  decoder_.set_output("head_sigmoid");
}

std::map<std::string, NDArray> PipelinedUNet3d::run_stage0(
    const NDArray& input, bool training) {
  std::map<std::string, NDArray> boundary;
  boundary.emplace("bottom", encoder_.forward({{"input", &input}}, training));
  for (size_t s = 0; s < skip_names_.size(); ++s) {
    boundary.emplace("skip" + std::to_string(s + 1),
                     encoder_.node_output(skip_names_[s]));
  }
  return boundary;
}

NDArray PipelinedUNet3d::forward(const NDArray& input, bool training) {
  const Shape& shape = input.shape();
  DMIS_CHECK(shape.rank() == 5, "expects (N,C,D,H,W), got " << shape.str());
  const int64_t n = shape.n();
  forward_was_training_ = training;

  // Microbatch boundaries (near-equal contiguous slices). A ragged
  // final batch smaller than the configured microbatch count degrades
  // gracefully to one sample per slice.
  const int m = static_cast<int>(
      std::min<int64_t>(num_microbatches_, n));
  inflight_.assign(static_cast<size_t>(m), Microbatch{});
  for (int i = 0; i < m; ++i) {
    inflight_[static_cast<size_t>(i)].lo = n * i / m;
    inflight_[static_cast<size_t>(i)].hi = n * (i + 1) / m;
  }

  std::vector<NDArray> outputs(static_cast<size_t>(m));
  IndexChannel to_stage1;

  // Stage 0 on its own thread; stage 1 on the calling thread. With the
  // fill-drain schedule, stage 0 runs microbatch i+1 while stage 1
  // consumes microbatch i.
  std::thread stage0([&] {
    for (int i = 0; i < m; ++i) {
      Microbatch& mb = inflight_[static_cast<size_t>(i)];
      mb.stage0_input = slice_batch(input, mb.lo, mb.hi);
      mb.boundary = run_stage0(mb.stage0_input, training);
      to_stage1.push(i);
    }
  });
  for (int done = 0; done < m; ++done) {
    const int i = to_stage1.pop();
    Microbatch& mb = inflight_[static_cast<size_t>(i)];
    std::map<std::string, const NDArray*> feeds;
    for (const auto& [name, tensor] : mb.boundary) {
      feeds.emplace(name, &tensor);
    }
    outputs[static_cast<size_t>(i)] = decoder_.forward(feeds, training);
  }
  stage0.join();

  // Stitch microbatch outputs back into the global batch.
  const Shape& out_shape0 = outputs.front().shape();
  Shape full = out_shape0.with_dim(0, n);
  NDArray out(full);
  const int64_t per = outputs.front().numel() /
                      out_shape0.n();
  for (int i = 0; i < m; ++i) {
    const Microbatch& mb = inflight_[static_cast<size_t>(i)];
    std::copy(outputs[static_cast<size_t>(i)].data(),
              outputs[static_cast<size_t>(i)].data() +
                  (mb.hi - mb.lo) * per,
              out.data() + mb.lo * per);
  }
  return out;
}

void PipelinedUNet3d::backward(const NDArray& grad_output) {
  DMIS_CHECK(!inflight_.empty(), "backward before forward");
  const int m = static_cast<int>(inflight_.size());

  // Reverse fill-drain: stage 1 (this thread) recomputes and
  // back-propagates microbatch m-1..0, handing boundary gradients to
  // the stage-0 thread.
  std::vector<std::map<std::string, NDArray>> boundary_grads(
      static_cast<size_t>(m));
  IndexChannel to_stage0;

  std::thread stage0([&] {
    for (int done = 0; done < m; ++done) {
      const int i = to_stage0.pop();
      Microbatch& mb = inflight_[static_cast<size_t>(i)];
      // Recompute stage-0 forward to restore the graph's node outputs,
      // then seed the bottleneck + skip nodes with the downstream
      // gradients.
      (void)run_stage0(mb.stage0_input, forward_was_training_);
      std::map<std::string, const NDArray*> seeds;
      auto& grads = boundary_grads[static_cast<size_t>(i)];
      seeds.emplace(bottom_name_, &grads.at("bottom"));
      for (size_t s = 0; s < skip_names_.size(); ++s) {
        seeds.emplace(skip_names_[s],
                      &grads.at("skip" + std::to_string(s + 1)));
      }
      encoder_.backward_multi(seeds);
    }
  });

  for (int i = m - 1; i >= 0; --i) {
    Microbatch& mb = inflight_[static_cast<size_t>(i)];
    // Recompute stage-1 forward from the saved boundary tensors.
    std::map<std::string, const NDArray*> feeds;
    for (const auto& [name, tensor] : mb.boundary) {
      feeds.emplace(name, &tensor);
    }
    (void)decoder_.forward(feeds, forward_was_training_);
    const NDArray grad_slice = slice_batch(grad_output, mb.lo, mb.hi);
    decoder_.backward(grad_slice);

    auto& grads = boundary_grads[static_cast<size_t>(i)];
    grads.emplace("bottom", decoder_.input_grad("bottom"));
    for (size_t s = 0; s < skip_names_.size(); ++s) {
      const std::string key = "skip" + std::to_string(s + 1);
      grads.emplace(key, decoder_.input_grad(key));
    }
    to_stage0.push(i);
  }
  stage0.join();
  inflight_.clear();
}

std::vector<Param> PipelinedUNet3d::params() {
  std::vector<Param> out;
  for (Param& p : encoder_.params()) {
    out.push_back(Param{"stage0." + p.name, p.value, p.grad});
  }
  for (Param& p : decoder_.params()) {
    out.push_back(Param{"stage1." + p.name, p.value, p.grad});
  }
  return out;
}

std::vector<Param> PipelinedUNet3d::checkpoint_params() {
  std::vector<Param> out;
  for (Param& p : encoder_.checkpoint_params()) {
    out.push_back(Param{"stage0." + p.name, p.value, p.grad});
  }
  for (Param& p : decoder_.checkpoint_params()) {
    out.push_back(Param{"stage1." + p.name, p.value, p.grad});
  }
  return out;
}

int64_t PipelinedUNet3d::num_params() { return param_count(params()); }

}  // namespace dmis::nn
