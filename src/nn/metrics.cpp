#include "nn/metrics.hpp"

#include "common/check.hpp"

namespace dmis::nn {

ConfusionCounts confusion(const NDArray& pred, const NDArray& target,
                          float threshold) {
  DMIS_CHECK(pred.shape() == target.shape(),
             "metrics: shape mismatch " << pred.shape().str() << " vs "
                                        << target.shape().str());
  ConfusionCounts c;
  for (int64_t i = 0; i < pred.numel(); ++i) {
    const bool p = pred[i] >= threshold;
    const bool t = target[i] >= 0.5F;
    if (p && t) ++c.tp;
    else if (p && !t) ++c.fp;
    else if (!p && t) ++c.fn;
    else ++c.tn;
  }
  return c;
}

double dice_score(const NDArray& pred, const NDArray& target,
                  float threshold) {
  const ConfusionCounts c = confusion(pred, target, threshold);
  const int64_t denom = 2 * c.tp + c.fp + c.fn;
  if (denom == 0) return 1.0;
  return 2.0 * static_cast<double>(c.tp) / static_cast<double>(denom);
}

}  // namespace dmis::nn
