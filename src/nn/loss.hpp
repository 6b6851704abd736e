// Segmentation losses.
//
// The paper trains with the soft Dice loss (its Eq. 1, epsilon = 0.1) and
// additionally evaluates the quadratic ("V-Net") soft Dice variant, which
// it reports as giving worse validation results. Both losses return the
// scalar value together with d(loss)/d(prediction), computed per sample
// and averaged over the batch dimension.
#pragma once

#include <memory>
#include <string>

#include "tensor/ndarray.hpp"

namespace dmis::nn {

struct LossResult {
  double value;   ///< Scalar loss, averaged over the batch.
  NDArray grad;   ///< d(loss)/d(pred), same shape as pred.
};

class Loss {
 public:
  virtual ~Loss() = default;
  virtual std::string name() const = 0;

  /// pred and target must share shape; pred in [0,1] (post-sigmoid),
  /// target in {0,1}. The first dimension is the batch.
  virtual LossResult compute(const NDArray& pred,
                             const NDArray& target) const = 0;
};

/// Paper Eq. 1: L = 1 - (2*sum(p*t) + eps) / (sum(p) + sum(t) + eps).
class SoftDiceLoss final : public Loss {
 public:
  explicit SoftDiceLoss(float eps = 0.1F) : eps_(eps) {}
  std::string name() const override { return "dice"; }
  LossResult compute(const NDArray& pred,
                     const NDArray& target) const override;

 private:
  float eps_;
};

/// V-Net variant: denominator uses sum(p^2) + sum(t^2).
class QuadraticSoftDiceLoss final : public Loss {
 public:
  explicit QuadraticSoftDiceLoss(float eps = 0.1F) : eps_(eps) {}
  std::string name() const override { return "qdice"; }
  LossResult compute(const NDArray& pred,
                     const NDArray& target) const override;

 private:
  float eps_;
};

/// Factory by name: "dice" or "qdice".
std::unique_ptr<Loss> make_loss(const std::string& name);

}  // namespace dmis::nn
