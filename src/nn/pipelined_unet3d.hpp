// Pipeline (model) parallelism for the 3D U-Net — the paper's §V-C
// future work, implemented GPipe-style:
//
//  * the network is cut at the spatial bottleneck into two stages
//    (encoder | decoder+head); every tensor crossing the cut — the
//    bottleneck feature map and all skip connections — is a boundary
//    tensor exchanged between stages;
//  * a global batch is split into microbatches that flow through the
//    stages in a fill-drain schedule, each stage running on its own
//    thread (its own "device"), so stage s processes microbatch m while
//    stage s+1 processes m-1;
//  * activation recomputation: forward keeps only the per-microbatch
//    stage inputs; backward re-runs each stage's forward to restore the
//    graph's node outputs before back-propagating (GPipe's memory
//    strategy) — this is exactly what lets large-input models exceed
//    single-device activation memory;
//  * parameter gradients accumulate across microbatches, giving
//    synchronous (no-staleness) SGD semantics: with batch norm disabled
//    the result is numerically equivalent to single-device training on
//    the global batch (tested). With batch norm, statistics are
//    per-microbatch — the same semantic shift real GPipe has — and
//    running stats see one extra update from the recomputation pass.
//
// Weight initialization consumes the RNG in the same order as the
// monolithic UNet3d, so a PipelinedUNet3d and a UNet3d built from the
// same options start bit-identical.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "nn/unet3d.hpp"

namespace dmis::nn {

class PipelinedUNet3d {
 public:
  /// Builds the two stage graphs. `num_microbatches` >= 1; the global
  /// batch passed to forward() must be >= num_microbatches.
  PipelinedUNet3d(const UNet3dOptions& options, int num_microbatches);

  /// Pipelined forward over the whole global batch; retains the
  /// per-microbatch stage inputs needed by backward().
  NDArray forward(const NDArray& input, bool training);

  /// Pipelined backward with activation recomputation; accumulates
  /// parameter gradients across microbatches.
  void backward(const NDArray& grad_output);

  /// Parameters of both stages (stage-prefixed names).
  std::vector<Param> params();
  std::vector<Param> checkpoint_params();
  int64_t num_params();

  int num_microbatches() const { return num_microbatches_; }
  int64_t spatial_divisor() const { return int64_t{1} << (opts_.depth - 1); }

  /// Peak activation elements resident per stage for one microbatch —
  /// the memory quantity pipeline parallelism divides across devices.
  /// (Reported by the model-parallel ablation bench.)
  static constexpr int kNumStages = 2;

 private:
  struct Microbatch {
    NDArray stage0_input;                   // sliced model input
    std::map<std::string, NDArray> boundary;  // bottleneck + skips
    int64_t lo = 0;
    int64_t hi = 0;
  };

  std::map<std::string, NDArray> run_stage0(const NDArray& input,
                                            bool training);

  UNet3dOptions opts_;
  int num_microbatches_;
  Graph encoder_;   // stage 0
  Graph decoder_;   // stage 1
  std::string bottom_name_;                 // encoder output node
  std::vector<std::string> skip_names_;     // encoder node names, s=1..d-1
  std::vector<Microbatch> inflight_;
  bool forward_was_training_ = false;
};

}  // namespace dmis::nn
