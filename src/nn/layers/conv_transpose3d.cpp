#include "nn/layers/conv_transpose3d.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "nn/init.hpp"
#include "tensor/gemm.hpp"

namespace dmis::nn {

ConvTranspose3d::ConvTranspose3d(int64_t in_channels, int64_t out_channels,
                                 int kernel, int stride, Rng& rng)
    : cin_(in_channels),
      cout_(out_channels),
      kernel_(kernel),
      stride_(stride),
      weight_(Shape{in_channels, out_channels, kernel, kernel, kernel}),
      bias_(Shape{out_channels}),
      grad_weight_(weight_.shape()),
      grad_bias_(bias_.shape()) {
  DMIS_CHECK(in_channels > 0 && out_channels > 0, "channels must be positive");
  DMIS_CHECK(kernel >= 1 && stride >= 1,
             "bad geometry: k=" << kernel << " s=" << stride);
  const int64_t fan_in =
      in_channels * static_cast<int64_t>(kernel) * kernel * kernel;
  he_init(weight_, fan_in, rng);
}

// The lowering views the transposed conv as the adjoint of an ordinary
// (pad-0) convolution over its *own output*: that convolution's im2col
// matrix has rows (co, kz, ky, kx) and columns indexed by this layer's
// *input* positions, so
//   forward:      Y  += col2im(W^T * X)      (col2im_gemm_3d);
//   input grad:   GI  = W * im2col(GO)       (im2col_gemm_3d);
//   weight grad:  GW += X * im2col(GO)^T     (gemm_im2col_t_3d);
// none of which stores the column matrix.
NDArray ConvTranspose3d::forward(std::span<const NDArray* const> inputs,
                                 bool training) {
  DMIS_CHECK(inputs.size() == 1, "ConvTranspose3d expects 1 input");
  const NDArray& in = *inputs[0];
  const Shape& s = in.shape();
  DMIS_CHECK(s.rank() == 5, "expects rank-5 input, got " << s.str());
  DMIS_CHECK(s.c() == cin_,
             "expects " << cin_ << " input channels, got " << s.c());
  // Only a training forward is followed by backward; an inference
  // forward drops any earlier activation instead of copying this one.
  input_ = training ? in : NDArray();

  const int64_t N = s.n(), D = s.d(), H = s.dim(3), W = s.dim(4);
  const int64_t OD = out_extent(D), OH = out_extent(H), OW = out_extent(W);
  NDArray out(Shape{N, cout_, OD, OH, OW});

  const int64_t cols = D * H * W;  // input positions = column count
  const float* x = in.data();
  const float* w = weight_.data();
  const float* b = bias_.data();
  float* y = out.data();
  const int64_t out_cs = OD * OH * OW;

  for (int64_t n = 0; n < N; ++n) {
    const float* xn = x + n * cin_ * cols;
    float* yn = y + n * cout_ * out_cs;
    for (int64_t co = 0; co < cout_; ++co) {
      std::fill_n(yn + co * out_cs, out_cs, b[co]);
    }
    // Y[Cout, out] += col2im(W[Cin, taps]^T * X[Cin, P])
    col2im_gemm_3d(w, xn, cin_, cout_, OD, OH, OW, kernel_, stride_,
                   /*pad=*/0, D, H, W, yn);
  }
  return out;
}

std::vector<NDArray> ConvTranspose3d::backward(const NDArray& grad_output) {
  DMIS_CHECK(input_.shape().rank() == 5,
             "ConvTranspose3d backward needs a training forward first");
  const Shape& is = input_.shape();
  const int64_t N = is.n(), D = is.d(), H = is.dim(3), W = is.dim(4);
  const int64_t OD = out_extent(D), OH = out_extent(H), OW = out_extent(W);
  DMIS_CHECK(grad_output.shape() == Shape({N, cout_, OD, OH, OW}),
             "ConvTranspose3d backward: grad shape "
                 << grad_output.shape().str() << " mismatch");

  NDArray grad_input(is);
  const int64_t k = kernel_, st = stride_;
  const int64_t cols = D * H * W;
  const int64_t out_cs = OD * OH * OW;
  const float* x = input_.data();
  const float* w = weight_.data();
  const float* go = grad_output.data();
  float* gw = grad_weight_.data();
  float* gb = grad_bias_.data();
  float* gi = grad_input.data();

  for (int64_t co = 0; co < cout_; ++co) {
    double acc = 0.0;
    for (int64_t n = 0; n < N; ++n) {
      const float* goc = go + (n * cout_ + co) * out_cs;
      for (int64_t i = 0; i < out_cs; ++i) acc += static_cast<double>(goc[i]);
    }
    gb[co] += static_cast<float>(acc);
  }

  for (int64_t n = 0; n < N; ++n) {
    const float* xn = x + n * cin_ * cols;
    const float* gon = go + n * cout_ * out_cs;
    float* gin = gi + n * cin_ * cols;
    // GI[Cin, P] = W[Cin, taps] * im2col(GO)[taps, P]
    im2col_gemm_3d(w, gon, cin_, cout_, OD, OH, OW, k, st, /*pad=*/0, D, H, W,
                   gin, /*accumulate=*/false);
    // GW[Cin, taps] += X[Cin, P] * im2col(GO)[taps, P]^T
    gemm_im2col_t_3d(xn, gon, cin_, cout_, OD, OH, OW, k, st, /*pad=*/0, D, H,
                     W, gw, /*accumulate=*/true);
  }
  std::vector<NDArray> grads;
  grads.push_back(std::move(grad_input));
  return grads;
}

std::vector<Param> ConvTranspose3d::params() {
  return {{"weight", &weight_, &grad_weight_},
          {"bias", &bias_, &grad_bias_}};
}

}  // namespace dmis::nn
