#include "conv_reference.hpp"

#include "tensor/thread_pool.hpp"

namespace dmis::nn::testing {

NDArray conv3d_forward_reference(const NDArray& input, const NDArray& weight,
                                 const NDArray& bias, ConvGeometry geom) {
  const Shape& s = input.shape();
  const int64_t N = s.n(), D = s.d(), H = s.dim(3), W = s.dim(4);
  const int64_t cout = weight.shape().dim(0), cin = weight.shape().dim(1);
  const int64_t k = weight.shape().dim(2), st = geom.stride, p = geom.padding;
  const int64_t OD = (D + 2 * p - k) / st + 1;
  const int64_t OH = (H + 2 * p - k) / st + 1;
  const int64_t OW = (W + 2 * p - k) / st + 1;
  NDArray out(Shape{N, cout, OD, OH, OW});

  const float* x = input.data();
  const float* w = weight.data();
  const float* b = bias.data();
  float* y = out.data();

  const int64_t in_cs = D * H * W;          // input channel stride
  const int64_t in_ns = cin * in_cs;        // input batch stride
  const int64_t out_cs = OD * OH * OW;
  const int64_t out_ns = cout * out_cs;
  const int64_t w_cos = cin * k * k * k;    // weight Cout stride

  parallel_for(0, N * cout, [&](int64_t lo, int64_t hi) {
    for (int64_t idx = lo; idx < hi; ++idx) {
      const int64_t n = idx / cout;
      const int64_t co = idx % cout;
      const float* xn = x + n * in_ns;
      const float* wc = w + co * w_cos;
      float* yc = y + n * out_ns + co * out_cs;
      for (int64_t od = 0; od < OD; ++od) {
        for (int64_t oh = 0; oh < OH; ++oh) {
          for (int64_t ow = 0; ow < OW; ++ow) {
            float acc = b[co];
            const int64_t z0 = od * st - p;
            const int64_t y0 = oh * st - p;
            const int64_t x0 = ow * st - p;
            for (int64_t ci = 0; ci < cin; ++ci) {
              const float* xc = xn + ci * in_cs;
              const float* wk = wc + ci * k * k * k;
              for (int64_t kz = 0; kz < k; ++kz) {
                const int64_t iz = z0 + kz;
                if (iz < 0 || iz >= D) continue;
                for (int64_t ky = 0; ky < k; ++ky) {
                  const int64_t iy = y0 + ky;
                  if (iy < 0 || iy >= H) continue;
                  const float* xrow = xc + (iz * H + iy) * W;
                  const float* wrow = wk + (kz * k + ky) * k;
                  for (int64_t kx = 0; kx < k; ++kx) {
                    const int64_t ix = x0 + kx;
                    if (ix < 0 || ix >= W) continue;
                    acc += xrow[ix] * wrow[kx];
                  }
                }
              }
            }
            yc[(od * OH + oh) * OW + ow] = acc;
          }
        }
      }
    }
  });
  return out;
}

ConvGrads conv3d_backward_reference(const NDArray& input,
                                    const NDArray& weight,
                                    const NDArray& grad_output,
                                    ConvGeometry geom) {
  const Shape& is = input.shape();
  const int64_t N = is.n(), D = is.d(), H = is.dim(3), W = is.dim(4);
  const Shape& os = grad_output.shape();
  const int64_t OD = os.d(), OH = os.dim(3), OW = os.dim(4);
  const int64_t cout = weight.shape().dim(0), cin = weight.shape().dim(1);
  ConvGrads grads{NDArray(is), NDArray(weight.shape()),
                  NDArray(Shape{cout})};

  const int64_t k = weight.shape().dim(2), st = geom.stride, p = geom.padding;
  const float* x = input.data();
  const float* w = weight.data();
  const float* go = grad_output.data();

  const int64_t in_cs = D * H * W;
  const int64_t in_ns = cin * in_cs;
  const int64_t out_cs = OD * OH * OW;
  const int64_t out_ns = cout * out_cs;
  const int64_t w_cos = cin * k * k * k;

  // Pass 1: parameter gradients, race-free parallel over output channel.
  float* gw = grads.weight.data();
  float* gb = grads.bias.data();
  parallel_for(0, cout, [&](int64_t lo, int64_t hi) {
    for (int64_t co = lo; co < hi; ++co) {
      float* gwc = gw + co * w_cos;
      double gb_acc = 0.0;
      for (int64_t n = 0; n < N; ++n) {
        const float* xn = x + n * in_ns;
        const float* goc = go + n * out_ns + co * out_cs;
        for (int64_t od = 0; od < OD; ++od) {
          for (int64_t oh = 0; oh < OH; ++oh) {
            for (int64_t ow = 0; ow < OW; ++ow) {
              const float g = goc[(od * OH + oh) * OW + ow];
              if (g == 0.0F) continue;
              gb_acc += static_cast<double>(g);
              const int64_t z0 = od * st - p;
              const int64_t y0 = oh * st - p;
              const int64_t x0 = ow * st - p;
              for (int64_t ci = 0; ci < cin; ++ci) {
                const float* xc = xn + ci * in_cs;
                float* gwk = gwc + ci * k * k * k;
                for (int64_t kz = 0; kz < k; ++kz) {
                  const int64_t iz = z0 + kz;
                  if (iz < 0 || iz >= D) continue;
                  for (int64_t ky = 0; ky < k; ++ky) {
                    const int64_t iy = y0 + ky;
                    if (iy < 0 || iy >= H) continue;
                    const float* xrow = xc + (iz * H + iy) * W;
                    float* gwrow = gwk + (kz * k + ky) * k;
                    for (int64_t kx = 0; kx < k; ++kx) {
                      const int64_t ix = x0 + kx;
                      if (ix < 0 || ix >= W) continue;
                      gwrow[kx] += g * xrow[ix];
                    }
                  }
                }
              }
            }
          }
        }
      }
      gb[co] += static_cast<float>(gb_acc);
    }
  });

  // Pass 2: input gradients, race-free parallel over batch.
  float* gi = grads.input.data();
  parallel_for(0, N, [&](int64_t lo, int64_t hi) {
    for (int64_t n = lo; n < hi; ++n) {
      float* gin = gi + n * in_ns;
      for (int64_t co = 0; co < cout; ++co) {
        const float* goc = go + n * out_ns + co * out_cs;
        const float* wc = w + co * w_cos;
        for (int64_t od = 0; od < OD; ++od) {
          for (int64_t oh = 0; oh < OH; ++oh) {
            for (int64_t ow = 0; ow < OW; ++ow) {
              const float g = goc[(od * OH + oh) * OW + ow];
              if (g == 0.0F) continue;
              const int64_t z0 = od * st - p;
              const int64_t y0 = oh * st - p;
              const int64_t x0 = ow * st - p;
              for (int64_t ci = 0; ci < cin; ++ci) {
                float* gic = gin + ci * in_cs;
                const float* wk = wc + ci * k * k * k;
                for (int64_t kz = 0; kz < k; ++kz) {
                  const int64_t iz = z0 + kz;
                  if (iz < 0 || iz >= D) continue;
                  for (int64_t ky = 0; ky < k; ++ky) {
                    const int64_t iy = y0 + ky;
                    if (iy < 0 || iy >= H) continue;
                    float* girow = gic + (iz * H + iy) * W;
                    const float* wrow = wk + (kz * k + ky) * k;
                    for (int64_t kx = 0; kx < k; ++kx) {
                      const int64_t ix = x0 + kx;
                      if (ix < 0 || ix >= W) continue;
                      girow[ix] += g * wrow[kx];
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  });
  return grads;
}

NDArray conv_transpose3d_forward_reference(const NDArray& input,
                                           const NDArray& weight,
                                           const NDArray& bias,
                                           ConvGeometry geom) {
  const Shape& s = input.shape();
  const int64_t N = s.n(), D = s.d(), H = s.dim(3), W = s.dim(4);
  const int64_t cin = weight.shape().dim(0), cout = weight.shape().dim(1);
  const int64_t k = weight.shape().dim(2), st = geom.stride;
  const int64_t OD = (D - 1) * st + k;
  const int64_t OH = (H - 1) * st + k;
  const int64_t OW = (W - 1) * st + k;
  NDArray out(Shape{N, cout, OD, OH, OW});

  const float* x = input.data();
  const float* w = weight.data();
  const float* b = bias.data();
  float* y = out.data();

  const int64_t in_cs = D * H * W;
  const int64_t in_ns = cin * in_cs;
  const int64_t out_cs = OD * OH * OW;
  const int64_t out_ns = cout * out_cs;
  const int64_t w_cis = cout * k * k * k;  // weight Cin stride
  const int64_t w_cos = k * k * k;         // weight Cout stride

  // Parallel over (batch x output channel): each task owns a disjoint
  // output slab, so the scatter accumulation is race-free.
  parallel_for(0, N * cout, [&](int64_t lo, int64_t hi) {
    for (int64_t idx = lo; idx < hi; ++idx) {
      const int64_t n = idx / cout;
      const int64_t co = idx % cout;
      float* yc = y + n * out_ns + co * out_cs;
      for (int64_t i = 0; i < out_cs; ++i) yc[i] = b[co];
      const float* xn = x + n * in_ns;
      for (int64_t ci = 0; ci < cin; ++ci) {
        const float* xc = xn + ci * in_cs;
        const float* wk = w + ci * w_cis + co * w_cos;
        for (int64_t iz = 0; iz < D; ++iz) {
          for (int64_t iy = 0; iy < H; ++iy) {
            for (int64_t ix = 0; ix < W; ++ix) {
              const float v = xc[(iz * H + iy) * W + ix];
              if (v == 0.0F) continue;
              const int64_t z0 = iz * st, y0 = iy * st, x0 = ix * st;
              for (int64_t kz = 0; kz < k; ++kz) {
                for (int64_t ky = 0; ky < k; ++ky) {
                  float* yrow = yc + ((z0 + kz) * OH + (y0 + ky)) * OW + x0;
                  const float* wrow = wk + (kz * k + ky) * k;
                  for (int64_t kx = 0; kx < k; ++kx) {
                    yrow[kx] += v * wrow[kx];
                  }
                }
              }
            }
          }
        }
      }
    }
  });
  return out;
}

ConvGrads conv_transpose3d_backward_reference(const NDArray& input,
                                              const NDArray& weight,
                                              const NDArray& grad_output,
                                              ConvGeometry geom) {
  const Shape& is = input.shape();
  const int64_t N = is.n(), D = is.d(), H = is.dim(3), W = is.dim(4);
  const Shape& os = grad_output.shape();
  const int64_t OD = os.d(), OH = os.dim(3), OW = os.dim(4);
  const int64_t cin = weight.shape().dim(0), cout = weight.shape().dim(1);
  ConvGrads grads{NDArray(is), NDArray(weight.shape()),
                  NDArray(Shape{cout})};

  const int64_t k = weight.shape().dim(2), st = geom.stride;
  const float* x = input.data();
  const float* w = weight.data();
  const float* go = grad_output.data();

  const int64_t in_cs = D * H * W;
  const int64_t in_ns = cin * in_cs;
  const int64_t out_cs = OD * OH * OW;
  const int64_t out_ns = cout * out_cs;
  const int64_t w_cis = cout * k * k * k;
  const int64_t w_cos = k * k * k;

  // Bias gradient: sum of grad_output per output channel.
  float* gb = grads.bias.data();
  parallel_for(0, cout, [&](int64_t lo, int64_t hi) {
    for (int64_t co = lo; co < hi; ++co) {
      double acc = 0.0;
      for (int64_t n = 0; n < N; ++n) {
        const float* goc = go + n * out_ns + co * out_cs;
        for (int64_t i = 0; i < out_cs; ++i) acc += goc[i];
      }
      gb[co] += static_cast<float>(acc);
    }
  });

  // Weight gradient: parallel over input channel (each ci owns a slab).
  float* gw = grads.weight.data();
  parallel_for(0, cin, [&](int64_t lo, int64_t hi) {
    for (int64_t ci = lo; ci < hi; ++ci) {
      float* gwc = gw + ci * w_cis;
      for (int64_t n = 0; n < N; ++n) {
        const float* xc = x + n * in_ns + ci * in_cs;
        for (int64_t co = 0; co < cout; ++co) {
          const float* goc = go + n * out_ns + co * out_cs;
          float* gwk = gwc + co * w_cos;
          for (int64_t iz = 0; iz < D; ++iz) {
            for (int64_t iy = 0; iy < H; ++iy) {
              for (int64_t ix = 0; ix < W; ++ix) {
                const float v = xc[(iz * H + iy) * W + ix];
                if (v == 0.0F) continue;
                const int64_t z0 = iz * st, y0 = iy * st, x0 = ix * st;
                for (int64_t kz = 0; kz < k; ++kz) {
                  for (int64_t ky = 0; ky < k; ++ky) {
                    const float* gorow =
                        goc + ((z0 + kz) * OH + (y0 + ky)) * OW + x0;
                    float* gwrow = gwk + (kz * k + ky) * k;
                    for (int64_t kx = 0; kx < k; ++kx) {
                      gwrow[kx] += v * gorow[kx];
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  });

  // Input gradient: gather from the output stamp, parallel over batch.
  float* gi = grads.input.data();
  parallel_for(0, N, [&](int64_t lo, int64_t hi) {
    for (int64_t n = lo; n < hi; ++n) {
      for (int64_t ci = 0; ci < cin; ++ci) {
        float* gic = gi + n * in_ns + ci * in_cs;
        for (int64_t co = 0; co < cout; ++co) {
          const float* goc = go + n * out_ns + co * out_cs;
          const float* wk = w + ci * w_cis + co * w_cos;
          for (int64_t iz = 0; iz < D; ++iz) {
            for (int64_t iy = 0; iy < H; ++iy) {
              for (int64_t ix = 0; ix < W; ++ix) {
                const int64_t z0 = iz * st, y0 = iy * st, x0 = ix * st;
                float acc = 0.0F;
                for (int64_t kz = 0; kz < k; ++kz) {
                  for (int64_t ky = 0; ky < k; ++ky) {
                    const float* gorow =
                        goc + ((z0 + kz) * OH + (y0 + ky)) * OW + x0;
                    const float* wrow = wk + (kz * k + ky) * k;
                    for (int64_t kx = 0; kx < k; ++kx) {
                      acc += gorow[kx] * wrow[kx];
                    }
                  }
                }
                gic[(iz * H + iy) * W + ix] += acc;
              }
            }
          }
        }
      }
    }
  });
  return grads;
}

}  // namespace dmis::nn::testing
