// Optimizers.
//
// The paper trains with Adam at an initial learning rate of 1e-4 x #GPUs
// (linear scaling with the data-parallel replica count). Optimizers hold
// non-owning Param references — the tensors live in the layers — plus
// their own state (moment estimates) keyed by parameter order.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/module.hpp"

namespace dmis::nn {

class Optimizer {
 public:
  Optimizer(std::vector<Param> params, double lr);
  virtual ~Optimizer() = default;

  /// Clears every parameter gradient (call before accumulating a step).
  void zero_grad();

  /// Applies one update from the accumulated gradients.
  void step();

  void set_lr(double lr) { lr_ = lr; }
  double lr() const { return lr_; }
  int64_t step_count() const { return step_count_; }
  /// Restores the step counter from a checkpoint (Adam's bias
  /// correction depends on it; checkpoint it alongside state_params()).
  void set_step_count(int64_t n) { step_count_ = n; }
  const std::vector<Param>& params() const { return params_; }
  virtual std::string name() const = 0;

  /// Named views of the optimizer's slot state (moment estimates), for
  /// step-consistent checkpointing. Names are derived from the
  /// parameter names ("opt.<slot>.<param>"), so they are
  /// stable across graph and optimizer reconstruction. The grad field
  /// aliases the state tensor — checkpoint I/O only touches `value`.
  virtual std::vector<Param> state_params() = 0;

 protected:
  virtual void apply() = 0;

  std::vector<Param> params_;
  double lr_;
  int64_t step_count_ = 0;
};

/// Adam (Kingma & Ba 2014) with bias correction.
class Adam final : public Optimizer {
 public:
  Adam(std::vector<Param> params, double lr, double beta1 = 0.9,
       double beta2 = 0.999, double eps = 1e-8);
  std::string name() const override { return "adam"; }
  std::vector<Param> state_params() override;

 private:
  void apply() override;
  double beta1_, beta2_, eps_;
  std::vector<NDArray> m_;
  std::vector<NDArray> v_;
};

/// Factory by name: only "adam" exists.
std::unique_ptr<Optimizer> make_optimizer(const std::string& name,
                                          std::vector<Param> params,
                                          double lr);

}  // namespace dmis::nn
