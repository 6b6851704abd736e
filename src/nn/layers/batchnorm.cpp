#include "nn/layers/batchnorm.hpp"

#include <cmath>

#include "common/check.hpp"
#include "tensor/thread_pool.hpp"

namespace dmis::nn {

BatchNorm::BatchNorm(int64_t channels, float momentum, float eps)
    : channels_(channels),
      momentum_(momentum),
      eps_(eps),
      gamma_(Shape{channels}, 1.0F),
      beta_(Shape{channels}),
      grad_gamma_(Shape{channels}),
      grad_beta_(Shape{channels}),
      running_mean_(Shape{channels}),
      running_var_(Shape{channels}, 1.0F) {
  DMIS_CHECK(channels > 0, "channels must be positive, got " << channels);
  DMIS_CHECK(momentum >= 0.0F && momentum < 1.0F,
             "momentum must be in [0,1), got " << momentum);
}

NDArray BatchNorm::forward(std::span<const NDArray* const> inputs,
                           bool training) {
  DMIS_CHECK(inputs.size() == 1, "BatchNorm expects 1 input");
  const NDArray& in = *inputs[0];
  const Shape& s = in.shape();
  DMIS_CHECK(s.rank() >= 2, "BatchNorm expects rank>=2, got " << s.str());
  DMIS_CHECK(s.c() == channels_, "BatchNorm expects " << channels_
                                 << " channels, got " << s.c());
  trained_forward_ = training;

  const int64_t N = s.n(), C = channels_;
  const int64_t spatial = s.numel() / (N * C);
  const int64_t cs = spatial;          // channel stride
  const int64_t ns = C * spatial;      // batch stride
  const int64_t count = N * spatial;   // elements per channel

  NDArray out(s);
  mean_.assign(static_cast<size_t>(C), 0.0F);
  inv_std_.assign(static_cast<size_t>(C), 0.0F);

  const float* x = in.data();
  float* y = out.data();
  const float* g = gamma_.data();
  const float* b = beta_.data();
  float* rm = running_mean_.data();
  float* rv = running_var_.data();

  parallel_for(0, C, [&](int64_t lo, int64_t hi) {
    for (int64_t c = lo; c < hi; ++c) {
      float mean = 0.0F;
      float var = 0.0F;
      if (training) {
        double sum = 0.0;
        double sq = 0.0;
        for (int64_t n = 0; n < N; ++n) {
          const float* xc = x + n * ns + c * cs;
          for (int64_t i = 0; i < spatial; ++i) {
            sum += xc[i];
            sq += static_cast<double>(xc[i]) * xc[i];
          }
        }
        mean = static_cast<float>(sum / static_cast<double>(count));
        var = static_cast<float>(sq / static_cast<double>(count) -
                                 static_cast<double>(mean) * mean);
        if (var < 0.0F) var = 0.0F;  // numeric guard
        rm[c] = momentum_ * rm[c] + (1.0F - momentum_) * mean;
        rv[c] = momentum_ * rv[c] + (1.0F - momentum_) * var;
      } else {
        mean = rm[c];
        var = rv[c];
      }
      const float istd = 1.0F / std::sqrt(var + eps_);
      mean_[static_cast<size_t>(c)] = mean;
      inv_std_[static_cast<size_t>(c)] = istd;
      for (int64_t n = 0; n < N; ++n) {
        const float* xc = x + n * ns + c * cs;
        float* yc = y + n * ns + c * cs;
        for (int64_t i = 0; i < spatial; ++i) {
          const float h = (xc[i] - mean) * istd;
          yc[i] = g[c] * h + b[c];
        }
      }
    }
  });
  return out;
}

std::vector<NDArray> BatchNorm::backward(
    std::span<const NDArray* const> inputs, const NDArray& /*output*/,
    const NDArray& grad_output) {
  DMIS_CHECK(inputs.size() == 1, "BatchNorm expects 1 input");
  const NDArray& in = *inputs[0];
  const Shape& s = in.shape();
  DMIS_CHECK(s.rank() >= 2 && s.c() == channels_ &&
                 static_cast<int64_t>(mean_.size()) == channels_,
             "BatchNorm backward: input shape " << s.str()
                                                << " mismatch or no forward");
  DMIS_CHECK(grad_output.shape() == s,
             "BatchNorm backward: grad shape mismatch");
  const int64_t N = s.n(), C = channels_;
  const int64_t spatial = s.numel() / (N * C);
  const int64_t cs = spatial;
  const int64_t ns = C * spatial;
  const int64_t count = N * spatial;

  NDArray grad_input(s);
  const float* go = grad_output.data();
  const float* x = in.data();
  const float* g = gamma_.data();
  float* gi = grad_input.data();
  float* gg = grad_gamma_.data();
  float* gb = grad_beta_.data();

  parallel_for(0, C, [&](int64_t lo, int64_t hi) {
    for (int64_t c = lo; c < hi; ++c) {
      const float mean = mean_[static_cast<size_t>(c)];
      const float istd = inv_std_[static_cast<size_t>(c)];
      double sum_go = 0.0;
      double sum_go_xh = 0.0;
      for (int64_t n = 0; n < N; ++n) {
        const float* goc = go + n * ns + c * cs;
        const float* xc = x + n * ns + c * cs;
        for (int64_t i = 0; i < spatial; ++i) {
          const float h = (xc[i] - mean) * istd;
          sum_go += goc[i];
          sum_go_xh += static_cast<double>(goc[i]) * h;
        }
      }
      gg[c] += static_cast<float>(sum_go_xh);
      gb[c] += static_cast<float>(sum_go);

      if (trained_forward_) {
        // Full batch-norm backward: d(x) depends on the batch statistics.
        const float m = static_cast<float>(count);
        const float mean_go = static_cast<float>(sum_go) / m;
        const float mean_go_xh = static_cast<float>(sum_go_xh) / m;
        for (int64_t n = 0; n < N; ++n) {
          const float* goc = go + n * ns + c * cs;
          const float* xc = x + n * ns + c * cs;
          float* gic = gi + n * ns + c * cs;
          for (int64_t i = 0; i < spatial; ++i) {
            const float h = (xc[i] - mean) * istd;
            gic[i] = g[c] * istd * (goc[i] - mean_go - h * mean_go_xh);
          }
        }
      } else {
        // Eval-mode statistics are constants w.r.t. the input.
        for (int64_t n = 0; n < N; ++n) {
          const float* goc = go + n * ns + c * cs;
          float* gic = gi + n * ns + c * cs;
          for (int64_t i = 0; i < spatial; ++i) {
            gic[i] = g[c] * istd * goc[i];
          }
        }
      }
    }
  });

  std::vector<NDArray> grads;
  grads.push_back(std::move(grad_input));
  return grads;
}

std::vector<Param> BatchNorm::params() {
  return {{"gamma", &gamma_, &grad_gamma_}, {"beta", &beta_, &grad_beta_}};
}

std::vector<Param> BatchNorm::state() {
  return {{"running_mean", &running_mean_, nullptr},
          {"running_var", &running_var_, nullptr}};
}

}  // namespace dmis::nn
