// Graph: a DAG of Modules with topological forward and reverse-order
// backward execution.
//
// Nodes are added in topological order by construction (every referenced
// input must already exist), so execution is a simple ordered sweep.
// When a node feeds several consumers — the U-Net skip connections — the
// incoming gradients are accumulated before that node's own backward runs.
//
// The graph owns the activations: every node's output lives here until
// the next forward(), and backward() hands each module the inputs and
// output of its last forward (see module.hpp), so no layer keeps a copy.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "nn/module.hpp"

namespace dmis::nn {

class Graph {
 public:
  /// Declares an external input (placeholder) node; returns its name.
  const std::string& add_input(const std::string& name);

  /// Adds a layer fed by the named upstream nodes; returns `name`.
  /// Throws if `name` already exists or any input is unknown.
  const std::string& add(const std::string& name,
                         std::unique_ptr<Module> module,
                         const std::vector<std::string>& inputs);

  /// Marks the node whose output forward() returns and backward() seeds.
  void set_output(const std::string& name);

  /// Runs all layers in order. `feeds` must provide every input node.
  /// Returns (a copy of the reference to) the output node's tensor.
  const NDArray& forward(const std::map<std::string, const NDArray*>& feeds,
                         bool training);

  /// Back-propagates `grad_output` (d loss / d output-node) through the
  /// graph, accumulating parameter gradients in every layer. Needs a
  /// training forward first: throws InvalidArgument when no forward has
  /// run or the last one was an inference forward.
  void backward(const NDArray& grad_output);

  /// Back-propagates from several seed nodes at once — the stage-level
  /// form needed by pipeline parallelism, where a stage's boundary
  /// tensors (e.g. the U-Net bottleneck plus every skip connection)
  /// each receive a gradient from the downstream stage. Same
  /// precondition as backward().
  void backward_multi(const std::map<std::string, const NDArray*>& seeds);

  /// Per-parameter readiness callback for gradient-synchronization
  /// overlap. Invoked during backward_multi() immediately after a
  /// node's backward() returns — at that point the node's parameter
  /// gradients are fully accumulated for the pass (each module's
  /// backward runs at most once per pass) — once per learnable
  /// parameter, with names matching params(). Nodes that do not run
  /// backward (off the seed-to-input path, or an idle replica) never
  /// fire; consumers must flush those themselves.
  using GradReadyHook = std::function<void(const Param&)>;

  /// Installs (or, with nullptr, removes) the readiness hook.
  void set_grad_ready_hook(GradReadyHook hook) {
    grad_ready_hook_ = std::move(hook);
  }

  /// Gradient w.r.t. an input placeholder (valid after backward()).
  const NDArray& input_grad(const std::string& name) const;

  /// Output tensor of any node (valid after forward()).
  const NDArray& node_output(const std::string& name) const;

  /// All learnable parameters, names prefixed "node.param".
  std::vector<Param> params();

  /// Parameters plus non-trainable state (batch-norm running stats) —
  /// the set a checkpoint must persist to make evaluation reproducible.
  std::vector<Param> checkpoint_params();

  /// One line per node: name, type, output shape, #params.
  std::string summary() const;

  int64_t num_params();

 private:
  struct Node {
    std::string name;
    std::unique_ptr<Module> module;  // nullptr for input placeholders
    std::vector<int> inputs;
    std::vector<int> consumers;
    NDArray output;
    NDArray grad;
    bool has_grad = false;
  };

  int index_of(const std::string& name) const;
  /// The outputs of `node`'s upstream nodes, in input order.
  std::vector<const NDArray*> inputs_of(const Node& node) const;

  std::vector<Node> nodes_;
  std::map<std::string, int> by_name_;
  GradReadyHook grad_ready_hook_;
  int output_node_ = -1;
  bool trained_forward_ = false;  // the last forward ran in training mode
};

}  // namespace dmis::nn
