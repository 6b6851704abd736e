// Module: the layer abstraction of the dmis_nn engine.
//
// The engine uses explicit, layer-owned gradients (the Caffe design) rather
// than a taped autograd: each Module computes its output in forward() while
// stashing whatever activations backward() needs, and backward() maps the
// gradient w.r.t. its output to gradients w.r.t. each input (plus parameter
// gradients accumulated into Param::grad). Networks are DAGs of Modules
// wired by dmis::nn::Graph, which handles topological execution and
// multi-consumer gradient accumulation (U-Net skip connections).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "tensor/ndarray.hpp"

namespace dmis::nn {

/// Non-owning reference to one learnable parameter tensor and its gradient.
/// The pointed-to tensors live in (and are owned by) the Module.
struct Param {
  std::string name;    ///< Layer-local name, e.g. "weight".
  NDArray* value;      ///< Current parameter values.
  NDArray* grad;       ///< Accumulated gradient (same shape as value).
};

/// Base class for all layers.
class Module {
 public:
  virtual ~Module() = default;

  /// Layer type tag for summaries, e.g. "Conv3d".
  virtual std::string type() const = 0;

  /// Computes the output for `inputs`. `training` selects train-time
  /// behaviour (batch-norm batch statistics, dropout masks, ...).
  /// Implementations must retain whatever backward() will need.
  virtual NDArray forward(std::span<const NDArray* const> inputs,
                          bool training) = 0;

  /// Maps d(loss)/d(output) to d(loss)/d(input_i) for each input of the
  /// preceding forward() call; accumulates parameter gradients (+=).
  virtual std::vector<NDArray> backward(const NDArray& grad_output) = 0;

  /// Learnable parameters (empty for stateless layers).
  virtual std::vector<Param> params() { return {}; }

  /// Non-trainable state that checkpoints must capture (e.g. batch-norm
  /// running statistics). `grad` is nullptr for these entries; never
  /// hand them to an optimizer.
  virtual std::vector<Param> state() { return {}; }

  /// Number of inputs the layer consumes (1 for most layers).
  virtual int arity() const { return 1; }

  /// Convenience for single-input layers.
  NDArray forward1(const NDArray& input, bool training) {
    const NDArray* ptr = &input;
    return forward(std::span<const NDArray* const>(&ptr, 1), training);
  }
};

/// Total number of scalar parameters across `params`.
inline int64_t param_count(const std::vector<Param>& params) {
  int64_t n = 0;
  for (const auto& p : params) n += p.value->numel();
  return n;
}

}  // namespace dmis::nn
