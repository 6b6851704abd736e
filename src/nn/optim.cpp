#include "nn/optim.hpp"

#include <cmath>

#include "common/check.hpp"

namespace dmis::nn {

Optimizer::Optimizer(std::vector<Param> params, double lr)
    : params_(std::move(params)), lr_(lr) {
  DMIS_CHECK(lr > 0.0, "learning rate must be positive, got " << lr);
  for (const Param& p : params_) {
    DMIS_CHECK(p.value != nullptr && p.grad != nullptr,
               "null param '" << p.name << "'");
    DMIS_CHECK(p.value->shape() == p.grad->shape(),
               "param/grad shape mismatch for '" << p.name << "'");
  }
}

void Optimizer::zero_grad() {
  for (Param& p : params_) p.grad->zero();
}

void Optimizer::step() {
  ++step_count_;
  apply();
}

Adam::Adam(std::vector<Param> params, double lr, double beta1, double beta2,
           double eps)
    : Optimizer(std::move(params), lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  DMIS_CHECK(beta1 >= 0.0 && beta1 < 1.0, "beta1 out of range: " << beta1);
  DMIS_CHECK(beta2 >= 0.0 && beta2 < 1.0, "beta2 out of range: " << beta2);
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Param& p : params_) {
    m_.emplace_back(p.value->shape());
    v_.emplace_back(p.value->shape());
  }
}

void Adam::apply() {
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(step_count_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(step_count_));
  const double b1 = beta1_, b2 = beta2_, lr = lr_, eps = eps_;
  for (size_t i = 0; i < params_.size(); ++i) {
    // Four distinct arrays, so the loop vectorizes (see CMakeLists.txt for
    // the flags that let std::sqrt do so without changing a bit).
    float* __restrict m = m_[i].data();
    float* __restrict v = v_[i].data();
    const float* __restrict g = params_[i].grad->data();
    float* __restrict w = params_[i].value->data();
    const int64_t n = params_[i].value->numel();
    for (int64_t j = 0; j < n; ++j) {
      const double gj = g[j];
      m[j] = static_cast<float>(b1 * m[j] + (1.0 - b1) * gj);
      v[j] = static_cast<float>(b2 * v[j] + (1.0 - b2) * gj * gj);
      const double m_hat = m[j] / bc1;
      const double v_hat = v[j] / bc2;
      w[j] -= static_cast<float>(lr * m_hat / (std::sqrt(v_hat) + eps));
    }
  }
}

std::vector<Param> Adam::state_params() {
  std::vector<Param> out;
  out.reserve(params_.size() * 2);
  for (size_t i = 0; i < params_.size(); ++i) {
    out.push_back(Param{"opt.m." + params_[i].name, &m_[i], &m_[i]});
    out.push_back(Param{"opt.v." + params_[i].name, &v_[i], &v_[i]});
  }
  return out;
}

std::unique_ptr<Optimizer> make_optimizer(const std::string& name,
                                          std::vector<Param> params,
                                          double lr) {
  if (name == "adam") return std::make_unique<Adam>(std::move(params), lr);
  throw InvalidArgument("unknown optimizer '" + name + "' (expected adam)");
}

}  // namespace dmis::nn
