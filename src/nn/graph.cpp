#include "nn/graph.hpp"

#include <sstream>

#include "common/check.hpp"

namespace dmis::nn {

const std::string& Graph::add_input(const std::string& name) {
  DMIS_CHECK(by_name_.find(name) == by_name_.end(),
             "duplicate node name '" << name << "'");
  by_name_[name] = static_cast<int>(nodes_.size());
  nodes_.push_back(Node{name, nullptr, {}, {}, NDArray{}, NDArray{}, false});
  return nodes_.back().name;
}

const std::string& Graph::add(const std::string& name,
                              std::unique_ptr<Module> module,
                              const std::vector<std::string>& inputs) {
  DMIS_CHECK(module != nullptr, "null module for node '" << name << "'");
  DMIS_CHECK(by_name_.find(name) == by_name_.end(),
             "duplicate node name '" << name << "'");
  DMIS_CHECK(static_cast<int>(inputs.size()) == module->arity(),
             "node '" << name << "' (" << module->type() << ") expects "
                      << module->arity() << " inputs, got " << inputs.size());
  Node node;
  node.name = name;
  node.module = std::move(module);
  const int self = static_cast<int>(nodes_.size());
  for (const auto& in : inputs) {
    const int idx = index_of(in);
    node.inputs.push_back(idx);
    nodes_[static_cast<size_t>(idx)].consumers.push_back(self);
  }
  by_name_[name] = self;
  nodes_.push_back(std::move(node));
  return nodes_.back().name;
}

void Graph::set_output(const std::string& name) {
  output_node_ = index_of(name);
}

int Graph::index_of(const std::string& name) const {
  const auto it = by_name_.find(name);
  DMIS_CHECK(it != by_name_.end(), "unknown node '" << name << "'");
  return it->second;
}

const NDArray& Graph::forward(
    const std::map<std::string, const NDArray*>& feeds, bool training) {
  DMIS_CHECK(output_node_ >= 0, "output node not set");
  for (auto& node : nodes_) {
    node.has_grad = false;
    if (node.module == nullptr) {
      const auto it = feeds.find(node.name);
      DMIS_CHECK(it != feeds.end() && it->second != nullptr,
                 "missing feed for input '" << node.name << "'");
      node.output = *it->second;
    } else {
      std::vector<const NDArray*> ins;
      ins.reserve(node.inputs.size());
      for (int idx : node.inputs) {
        ins.push_back(&nodes_[static_cast<size_t>(idx)].output);
      }
      node.output = node.module->forward(
          std::span<const NDArray* const>(ins.data(), ins.size()), training);
    }
  }
  return nodes_[static_cast<size_t>(output_node_)].output;
}

void Graph::backward(const NDArray& grad_output) {
  DMIS_CHECK(output_node_ >= 0, "output node not set");
  const NDArray* seed = &grad_output;
  backward_multi({{nodes_[static_cast<size_t>(output_node_)].name, seed}});
}

void Graph::backward_multi(
    const std::map<std::string, const NDArray*>& seeds) {
  DMIS_CHECK(!seeds.empty(), "backward_multi needs at least one seed");
  for (const auto& [name, grad] : seeds) {
    DMIS_CHECK(grad != nullptr, "null gradient seed for '" << name << "'");
    Node& node = nodes_[static_cast<size_t>(index_of(name))];
    DMIS_CHECK(grad->shape() == node.output.shape(),
               "backward seed for '" << name << "': grad shape "
                                     << grad->shape().str()
                                     << " does not match output "
                                     << node.output.shape().str());
    if (node.has_grad) {
      node.grad.add_(*grad);
    } else {
      node.grad = *grad;
      node.has_grad = true;
    }
  }

  for (auto it = nodes_.rbegin(); it != nodes_.rend(); ++it) {
    Node& node = *it;
    if (!node.has_grad || node.module == nullptr) continue;
    std::vector<NDArray> input_grads = node.module->backward(node.grad);
    if (grad_ready_hook_) {
      for (Param& p : node.module->params()) {
        grad_ready_hook_(Param{node.name + "." + p.name, p.value, p.grad});
      }
    }
    DMIS_ASSERT(input_grads.size() == node.inputs.size(),
                "node '" << node.name << "' returned "
                         << input_grads.size() << " grads for "
                         << node.inputs.size() << " inputs");
    for (size_t i = 0; i < node.inputs.size(); ++i) {
      Node& producer = nodes_[static_cast<size_t>(node.inputs[i])];
      if (producer.has_grad) {
        producer.grad.add_(input_grads[i]);
      } else {
        producer.grad = std::move(input_grads[i]);
        producer.has_grad = true;
      }
    }
  }
}

const NDArray& Graph::input_grad(const std::string& name) const {
  const Node& node = nodes_[static_cast<size_t>(index_of(name))];
  DMIS_CHECK(node.module == nullptr, "'" << name << "' is not an input node");
  DMIS_CHECK(node.has_grad, "no gradient for input '" << name
                            << "'; call backward() first");
  return node.grad;
}

const NDArray& Graph::node_output(const std::string& name) const {
  return nodes_[static_cast<size_t>(index_of(name))].output;
}

std::vector<Param> Graph::params() {
  std::vector<Param> out;
  for (auto& node : nodes_) {
    if (node.module == nullptr) continue;
    for (Param& p : node.module->params()) {
      out.push_back(Param{node.name + "." + p.name, p.value, p.grad});
    }
  }
  return out;
}

std::vector<Param> Graph::checkpoint_params() {
  std::vector<Param> out = params();
  for (auto& node : nodes_) {
    if (node.module == nullptr) continue;
    for (Param& p : node.module->state()) {
      out.push_back(Param{node.name + "." + p.name, p.value, p.grad});
    }
  }
  return out;
}

int64_t Graph::num_params() { return param_count(params()); }

std::string Graph::summary() const {
  std::ostringstream os;
  for (const auto& node : nodes_) {
    os << node.name << "  "
       << (node.module ? node.module->type() : "Input");
    if (node.module) {
      int64_t n = 0;
      for (const Param& p : const_cast<Module*>(node.module.get())->params())
        n += p.value->numel();
      if (n > 0) os << "  params=" << n;
    }
    if (node.output.shape().rank() > 0) os << "  out=" << node.output.shape().str();
    os << "\n";
  }
  return os.str();
}

}  // namespace dmis::nn
