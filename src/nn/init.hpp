// Weight initializers.
//
// The paper uses a truncated-normal kernel initializer for every
// convolution; the layers draw it with the He fan-in scaling.
#pragma once

#include "tensor/ndarray.hpp"
#include "tensor/rng.hpp"

namespace dmis::nn {

/// Truncated normal with the given stddev (values clipped at 2 sigma by
/// redraw). This is the paper's convolution initializer.
void truncated_normal_init(NDArray& w, double stddev, Rng& rng);

/// He/Kaiming truncated-normal scaling: stddev = sqrt(2 / fan_in).
void he_init(NDArray& w, int64_t fan_in, Rng& rng);

}  // namespace dmis::nn
