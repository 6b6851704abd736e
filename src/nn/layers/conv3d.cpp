#include "nn/layers/conv3d.hpp"

#include <cmath>

#include "common/check.hpp"
#include "nn/init.hpp"
#include "tensor/gemm.hpp"

namespace dmis::nn {

Conv3d::Conv3d(int64_t in_channels, int64_t out_channels, int kernel,
               int stride, int padding, Rng& rng)
    : cin_(in_channels),
      cout_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      weight_(Shape{out_channels, in_channels, kernel, kernel, kernel}),
      bias_(Shape{out_channels}),
      grad_weight_(weight_.shape()),
      grad_bias_(bias_.shape()) {
  DMIS_CHECK(in_channels > 0 && out_channels > 0, "channels must be positive");
  DMIS_CHECK(kernel >= 1 && stride >= 1 && padding >= 0,
             "bad conv geometry: k=" << kernel << " s=" << stride
                                     << " p=" << padding);
  const int64_t fan_in =
      in_channels * static_cast<int64_t>(kernel) * kernel * kernel;
  he_init(weight_, fan_in, rng);
}

NDArray Conv3d::forward(std::span<const NDArray* const> inputs,
                        bool /*training*/) {
  DMIS_CHECK(inputs.size() == 1, "Conv3d expects 1 input");
  const NDArray& in = *inputs[0];
  const Shape& s = in.shape();
  DMIS_CHECK(s.rank() == 5, "Conv3d expects rank-5 input, got " << s.str());
  DMIS_CHECK(s.c() == cin_, "Conv3d expects " << cin_ << " input channels, got "
                                              << s.c());
  const int64_t N = s.n(), D = s.d(), H = s.dim(3), W = s.dim(4);
  const int64_t OD = out_extent(D), OH = out_extent(H), OW = out_extent(W);
  DMIS_CHECK(OD > 0 && OH > 0 && OW > 0,
             "conv output collapsed for input " << s.str());
  NDArray out(Shape{N, cout_, OD, OH, OW});

  const int64_t k = kernel_, st = stride_, p = padding_;
  const int64_t cols = OD * OH * OW;  // output positions
  const float* x = in.data();
  const float* w = weight_.data();
  const float* b = bias_.data();
  float* y = out.data();

  for (int64_t n = 0; n < N; ++n) {
    const float* xn = x + n * cin_ * D * H * W;
    float* yn = y + n * cout_ * cols;
    for (int64_t co = 0; co < cout_; ++co) {
      std::fill_n(yn + co * cols, cols, b[co]);
    }
    if (identity_cols()) {
      // Y[Cout, P] += W[Cout, Cin] * X[Cin, P]
      sgemm(false, false, cout_, cols, cin_, w, cin_, xn, cols, yn, cols,
            /*accumulate=*/true);
    } else {
      // Y[Cout, P] += W[Cout, taps] * im2col(X)[taps, P]
      im2col_gemm_3d(w, xn, cout_, cin_, D, H, W, k, st, p, OD, OH, OW, yn,
                     /*accumulate=*/true);
    }
  }
  return out;
}

std::vector<NDArray> Conv3d::backward(
    std::span<const NDArray* const> inputs, const NDArray& /*output*/,
    const NDArray& grad_output) {
  DMIS_CHECK(inputs.size() == 1, "Conv3d expects 1 input");
  const NDArray& in = *inputs[0];
  const Shape& is = in.shape();
  DMIS_CHECK(is.rank() == 5 && is.c() == cin_,
             "Conv3d backward: input shape " << is.str() << " mismatch");
  const int64_t N = is.n(), D = is.d(), H = is.dim(3), W = is.dim(4);
  const int64_t OD = out_extent(D), OH = out_extent(H), OW = out_extent(W);
  DMIS_CHECK(grad_output.shape() == Shape({N, cout_, OD, OH, OW}),
             "Conv3d backward: grad shape " << grad_output.shape().str()
                                            << " mismatch");

  NDArray grad_input(is);
  const int64_t k = kernel_, st = stride_, p = padding_;
  const int64_t cols = OD * OH * OW;
  const float* x = in.data();
  const float* w = weight_.data();
  const float* go = grad_output.data();
  float* gw = grad_weight_.data();
  float* gb = grad_bias_.data();
  float* gi = grad_input.data();

  // Bias gradient: per-channel sum of grad_output.
  for (int64_t co = 0; co < cout_; ++co) {
    double acc = 0.0;
    for (int64_t n = 0; n < N; ++n) {
      const float* goc = go + (n * cout_ + co) * cols;
      for (int64_t i = 0; i < cols; ++i) acc += static_cast<double>(goc[i]);
    }
    gb[co] += static_cast<float>(acc);
  }

  for (int64_t n = 0; n < N; ++n) {
    const float* xn = x + n * cin_ * D * H * W;
    const float* gon = go + n * cout_ * cols;
    float* gin = gi + n * cin_ * D * H * W;
    if (identity_cols()) {
      // GW[Cout, Cin] += GO[Cout, P] * X[Cin, P]^T
      sgemm(false, true, cout_, cin_, cols, gon, cols, xn, cols, gw, cin_,
            /*accumulate=*/true);
      // GI[Cin, P] = W[Cout, Cin]^T * GO[Cout, P]
      sgemm(true, false, cin_, cols, cout_, w, cin_, gon, cols, gin, cols,
            /*accumulate=*/false);
    } else {
      // GW[Cout, taps] += GO[Cout, P] * im2col(X)[taps, P]^T
      gemm_im2col_t_3d(gon, xn, cout_, cin_, D, H, W, k, st, p, OD, OH, OW,
                       gw, /*accumulate=*/true);
      // GI += col2im(W^T * GO), into the zeroed grad_input.
      col2im_gemm_3d(w, gon, cout_, cin_, D, H, W, k, st, p, OD, OH, OW, gin);
    }
  }
  std::vector<NDArray> grads;
  grads.push_back(std::move(grad_input));
  return grads;
}

std::vector<Param> Conv3d::params() {
  return {{"weight", &weight_, &grad_weight_},
          {"bias", &bias_, &grad_bias_}};
}

}  // namespace dmis::nn
