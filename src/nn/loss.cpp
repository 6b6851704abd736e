#include "nn/loss.hpp"

#include "common/check.hpp"

namespace dmis::nn {
namespace {

void check_pair(const NDArray& pred, const NDArray& target) {
  DMIS_CHECK(pred.shape() == target.shape(),
             "loss: pred shape " << pred.shape().str() << " != target "
                                 << target.shape().str());
  DMIS_CHECK(pred.shape().rank() >= 1, "loss expects batched tensors");
}

}  // namespace

LossResult SoftDiceLoss::compute(const NDArray& pred,
                                 const NDArray& target) const {
  check_pair(pred, target);
  const int64_t n = pred.shape().n();
  const int64_t per = pred.numel() / n;
  NDArray grad(pred.shape());
  double total = 0.0;

  for (int64_t b = 0; b < n; ++b) {
    const float* p = pred.data() + b * per;
    const float* t = target.data() + b * per;
    float* g = grad.data() + b * per;
    double inter = 0.0, sum_p = 0.0, sum_t = 0.0;
    for (int64_t i = 0; i < per; ++i) {
      inter += static_cast<double>(p[i]) * t[i];
      sum_p += p[i];
      sum_t += t[i];
    }
    const double a = 2.0 * inter + eps_;
    const double d = sum_p + sum_t + eps_;
    total += 1.0 - a / d;
    // dL/dp_i = -(2*t_i*d - a) / d^2, averaged over the batch.
    const double inv_d2 = 1.0 / (d * d);
    for (int64_t i = 0; i < per; ++i) {
      g[i] = static_cast<float>(-(2.0 * t[i] * d - a) * inv_d2 /
                                static_cast<double>(n));
    }
  }
  return {total / static_cast<double>(n), std::move(grad)};
}

LossResult QuadraticSoftDiceLoss::compute(const NDArray& pred,
                                          const NDArray& target) const {
  check_pair(pred, target);
  const int64_t n = pred.shape().n();
  const int64_t per = pred.numel() / n;
  NDArray grad(pred.shape());
  double total = 0.0;

  for (int64_t b = 0; b < n; ++b) {
    const float* p = pred.data() + b * per;
    const float* t = target.data() + b * per;
    float* g = grad.data() + b * per;
    double inter = 0.0, sum_p2 = 0.0, sum_t2 = 0.0;
    for (int64_t i = 0; i < per; ++i) {
      inter += static_cast<double>(p[i]) * t[i];
      sum_p2 += static_cast<double>(p[i]) * p[i];
      sum_t2 += static_cast<double>(t[i]) * t[i];
    }
    const double a = 2.0 * inter + eps_;
    const double d = sum_p2 + sum_t2 + eps_;
    total += 1.0 - a / d;
    // dL/dp_i = -(2*t_i*d - a*2*p_i) / d^2, averaged over the batch.
    const double inv_d2 = 1.0 / (d * d);
    for (int64_t i = 0; i < per; ++i) {
      g[i] = static_cast<float>(-(2.0 * t[i] * d - 2.0 * p[i] * a) * inv_d2 /
                                static_cast<double>(n));
    }
  }
  return {total / static_cast<double>(n), std::move(grad)};
}

std::unique_ptr<Loss> make_loss(const std::string& name) {
  if (name == "dice") return std::make_unique<SoftDiceLoss>();
  if (name == "qdice") return std::make_unique<QuadraticSoftDiceLoss>();
  throw InvalidArgument("unknown loss '" + name + "' (expected dice|qdice)");
}

}  // namespace dmis::nn
