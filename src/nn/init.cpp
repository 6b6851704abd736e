#include "nn/init.hpp"

#include <cmath>

#include "common/check.hpp"

namespace dmis::nn {

void truncated_normal_init(NDArray& w, double stddev, Rng& rng) {
  DMIS_CHECK(stddev >= 0.0, "negative stddev " << stddev);
  for (int64_t i = 0; i < w.numel(); ++i) {
    w[i] = static_cast<float>(rng.truncated_normal(0.0, stddev));
  }
}

void he_init(NDArray& w, int64_t fan_in, Rng& rng) {
  DMIS_CHECK(fan_in > 0, "fan_in must be positive, got " << fan_in);
  truncated_normal_init(w, std::sqrt(2.0 / static_cast<double>(fan_in)), rng);
}

}  // namespace dmis::nn
