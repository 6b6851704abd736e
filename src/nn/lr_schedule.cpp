#include "nn/lr_schedule.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace dmis::nn {

ConstantLr::ConstantLr(double lr) : lr_(lr) {
  DMIS_CHECK(lr > 0.0, "lr must be positive, got " << lr);
}

double ConstantLr::lr(int64_t /*step*/) const { return lr_; }

CyclicLr::CyclicLr(double base_lr, double max_lr, int64_t step_size)
    : base_lr_(base_lr), max_lr_(max_lr), step_size_(step_size) {
  DMIS_CHECK(base_lr > 0.0 && max_lr >= base_lr,
             "need 0 < base_lr <= max_lr, got " << base_lr << ", " << max_lr);
  DMIS_CHECK(step_size > 0, "step_size must be positive, got " << step_size);
}

double CyclicLr::lr(int64_t step) const {
  DMIS_CHECK(step >= 0, "negative step " << step);
  // Smith's triangular policy.
  const double cycle = std::floor(
      1.0 + static_cast<double>(step) / (2.0 * static_cast<double>(step_size_)));
  const double x = std::fabs(static_cast<double>(step) /
                                 static_cast<double>(step_size_) -
                             2.0 * cycle + 1.0);
  return base_lr_ + (max_lr_ - base_lr_) * std::max(0.0, 1.0 - x);
}

}  // namespace dmis::nn
