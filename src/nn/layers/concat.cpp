#include "nn/layers/concat.hpp"

#include <cstring>

#include "common/check.hpp"

namespace dmis::nn {

NDArray Concat::forward(std::span<const NDArray* const> inputs,
                        bool /*training*/) {
  DMIS_CHECK(static_cast<int>(inputs.size()) == num_inputs_,
             "Concat expects " << num_inputs_ << " inputs, got "
                               << inputs.size());
  DMIS_CHECK(!inputs.empty(), "Concat needs at least one input");

  const Shape& first = inputs[0]->shape();
  DMIS_CHECK(first.rank() == 5, "Concat expects rank-5 inputs");
  int64_t total_c = 0;
  for (const NDArray* t : inputs) {
    const Shape& s = t->shape();
    DMIS_CHECK(s.rank() == 5 && s.n() == first.n() && s.d() == first.d() &&
                   s.dim(3) == first.dim(3) && s.dim(4) == first.dim(4),
               "Concat input shape " << s.str() << " incompatible with "
                                     << first.str());
    total_c += s.c();
  }

  const int64_t N = first.n();
  const int64_t spatial = first.d() * first.dim(3) * first.dim(4);
  NDArray out(Shape{N, total_c, first.d(), first.dim(3), first.dim(4)});
  float* y = out.data();
  const int64_t out_ns = total_c * spatial;

  for (int64_t n = 0; n < N; ++n) {
    int64_t c_off = 0;
    for (const NDArray* t : inputs) {
      const int64_t c = t->shape().c();
      const int64_t slab = c * spatial;
      std::memcpy(y + n * out_ns + c_off * spatial,
                  t->data() + n * slab, static_cast<size_t>(slab) * sizeof(float));
      c_off += c;
    }
  }
  return out;
}

std::vector<NDArray> Concat::backward(std::span<const NDArray* const> inputs,
                                      const NDArray& /*output*/,
                                      const NDArray& grad_output) {
  DMIS_CHECK(static_cast<int>(inputs.size()) == num_inputs_,
             "Concat expects " << num_inputs_ << " inputs, got "
                               << inputs.size());
  const Shape& first = inputs[0]->shape();
  const int64_t N = first.n();
  const int64_t spatial = first.d() * first.dim(3) * first.dim(4);
  const int64_t total_c = grad_output.shape().c();
  const int64_t out_ns = total_c * spatial;
  const float* go = grad_output.data();

  std::vector<NDArray> grads;
  grads.reserve(inputs.size());
  int64_t c_off = 0;
  for (const NDArray* t : inputs) {
    const Shape& s = t->shape();
    NDArray g(s);
    const int64_t c = s.c();
    const int64_t slab = c * spatial;
    for (int64_t n = 0; n < N; ++n) {
      std::memcpy(g.data() + n * slab, go + n * out_ns + c_off * spatial,
                  static_cast<size_t>(slab) * sizeof(float));
    }
    c_off += c;
    grads.push_back(std::move(g));
  }
  return grads;
}

}  // namespace dmis::nn
