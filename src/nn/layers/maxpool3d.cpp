#include "nn/layers/maxpool3d.hpp"

#include <limits>

#include "common/check.hpp"

namespace dmis::nn {

MaxPool3d::MaxPool3d(int kernel, int stride)
    : kernel_(kernel), stride_(stride) {
  DMIS_CHECK(kernel >= 1 && stride >= 1,
             "bad pool geometry: k=" << kernel << " s=" << stride);
}

NDArray MaxPool3d::forward(std::span<const NDArray* const> inputs,
                           bool /*training*/) {
  DMIS_CHECK(inputs.size() == 1, "MaxPool3d expects 1 input");
  const NDArray& in = *inputs[0];
  const Shape& s = in.shape();
  DMIS_CHECK(s.rank() == 5, "MaxPool3d expects rank-5 input, got " << s.str());

  const int64_t N = s.n(), C = s.c(), D = s.d(), H = s.dim(3), W = s.dim(4);
  const int64_t OD = out_extent(D), OH = out_extent(H), OW = out_extent(W);
  DMIS_CHECK(OD > 0 && OH > 0 && OW > 0,
             "pool output collapsed for input " << s.str());
  NDArray out(Shape{N, C, OD, OH, OW});
  argmax_.assign(static_cast<size_t>(out.numel()), -1);

  const int64_t k = kernel_, st = stride_;
  const float* x = in.data();
  float* y = out.data();
  int64_t* am = argmax_.data();
  const int64_t in_cs = D * H * W;
  const int64_t out_cs = OD * OH * OW;

  parallel_for(0, N * C, [&](int64_t lo, int64_t hi) {
    for (int64_t nc = lo; nc < hi; ++nc) {
      const float* xc = x + nc * in_cs;
      float* yc = y + nc * out_cs;
      int64_t* amc = am + nc * out_cs;
      for (int64_t od = 0; od < OD; ++od) {
        for (int64_t oh = 0; oh < OH; ++oh) {
          for (int64_t ow = 0; ow < OW; ++ow) {
            float best = -std::numeric_limits<float>::infinity();
            int64_t best_idx = -1;
            for (int64_t kz = 0; kz < k; ++kz) {
              for (int64_t ky = 0; ky < k; ++ky) {
                for (int64_t kx = 0; kx < k; ++kx) {
                  const int64_t iz = od * st + kz;
                  const int64_t iy = oh * st + ky;
                  const int64_t ix = ow * st + kx;
                  if (iz >= D || iy >= H || ix >= W) continue;
                  const int64_t flat = (iz * H + iy) * W + ix;
                  if (xc[flat] > best) {
                    best = xc[flat];
                    best_idx = flat;
                  }
                }
              }
            }
            const int64_t o = (od * OH + oh) * OW + ow;
            yc[o] = best;
            amc[o] = nc * in_cs + best_idx;
          }
        }
      }
    }
  });
  return out;
}

std::vector<NDArray> MaxPool3d::backward(
    std::span<const NDArray* const> inputs, const NDArray& output,
    const NDArray& grad_output) {
  DMIS_CHECK(inputs.size() == 1, "MaxPool3d expects 1 input");
  const Shape& os = output.shape();
  DMIS_CHECK(grad_output.shape() == os &&
                 static_cast<int64_t>(argmax_.size()) == os.numel(),
             "MaxPool3d backward: grad shape " << grad_output.shape().str()
                                               << " mismatch");
  NDArray grad_input(inputs[0]->shape());
  float* gi = grad_input.data();
  const float* go = grad_output.data();
  // Scatter is race-free parallel over (N x C): windows of distinct
  // channel slabs never overlap.
  const int64_t out_cs = os.d() * os.dim(3) * os.dim(4);
  parallel_for(0, os.n() * os.c(),
               [&](int64_t lo, int64_t hi) {
                 for (int64_t nc = lo; nc < hi; ++nc) {
                   for (int64_t o = nc * out_cs; o < (nc + 1) * out_cs; ++o) {
                     gi[argmax_[static_cast<size_t>(o)]] += go[o];
                   }
                 }
               });
  std::vector<NDArray> grads;
  grads.push_back(std::move(grad_input));
  return grads;
}

}  // namespace dmis::nn
