// Workspace: reusable scratch memory for compute kernels.
//
// The im2col lowering needs a [Cin*K^3, OD*OH*OW] column buffer per conv
// call — for a 3x3x3 kernel that is 27x the activation size, far too big
// to allocate per step. A Workspace is a grow-only float arena: scratch(n)
// returns a span of at least n floats that stays valid until the next
// scratch() call, and capacity only ever grows, so after the first
// training step every conv forward/backward is allocation-free. Only the
// im2col passes (conv forward and weight gradient, transposed-conv
// backward) take scratch; the fused col2im_gemm_3d passes need none.
//
// Sharing: Graph::add() hands every layer the graph's single Workspace
// (layers of one graph execute sequentially, so one arena sized to the
// largest conv serves them all). Layers used standalone lazily create a
// private one. Workspaces are not thread-safe; concurrent model replicas
// each own a Graph and therefore a Workspace.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace dmis::nn {

class Workspace {
 public:
  /// At least `n` floats, uninitialized, valid until the next scratch().
  std::span<float> scratch(int64_t n) {
    if (static_cast<int64_t>(buf_.size()) < n) {
      buf_.resize(static_cast<size_t>(n));
    }
    return {buf_.data(), static_cast<size_t>(n)};
  }

  /// High-water mark, in floats (0 until first use).
  int64_t capacity() const { return static_cast<int64_t>(buf_.size()); }

 private:
  std::vector<float> buf_;
};

}  // namespace dmis::nn
