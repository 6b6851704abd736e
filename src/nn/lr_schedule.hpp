// Learning-rate schedules.
//
// Data-parallel training scales the base learning rate linearly with the
// replica count (the paper uses 1e-4 x #GPUs) and notes that the scaled
// rate must be approached carefully — it cites the Cyclic Learning Rates
// technique (Smith, WACV'17), implemented here as the triangular policy.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

namespace dmis::nn {

class LrSchedule {
 public:
  virtual ~LrSchedule() = default;
  /// Learning rate to use at optimizer step `step` (0-based).
  virtual double lr(int64_t step) const = 0;
  virtual std::string name() const = 0;
};

class ConstantLr final : public LrSchedule {
 public:
  explicit ConstantLr(double lr);
  double lr(int64_t step) const override;
  std::string name() const override { return "constant"; }

 private:
  double lr_;
};

/// Triangular cyclic LR: sweeps linearly base -> max -> base over
/// 2 * step_size optimizer steps, repeating.
class CyclicLr final : public LrSchedule {
 public:
  CyclicLr(double base_lr, double max_lr, int64_t step_size);
  double lr(int64_t step) const override;
  std::string name() const override { return "cyclic"; }

 private:
  double base_lr_;
  double max_lr_;
  int64_t step_size_;
};

}  // namespace dmis::nn
