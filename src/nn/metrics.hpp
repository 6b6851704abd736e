// Segmentation quality metrics.
//
// The hard Dice similarity coefficient (DSC, a.k.a. Sorensen-Dice or
// F1-score) is the paper's correctness reference: all pipeline variants
// must preserve it. Predictions are thresholded at `threshold` before
// overlap counting.
#pragma once

#include <cstdint>

#include "tensor/ndarray.hpp"

namespace dmis::nn {

/// Voxel-level confusion counts for a binary segmentation.
struct ConfusionCounts {
  int64_t tp = 0;
  int64_t fp = 0;
  int64_t fn = 0;
  int64_t tn = 0;
};

/// Counts TP/FP/FN/TN over all elements after thresholding `pred`.
ConfusionCounts confusion(const NDArray& pred, const NDArray& target,
                          float threshold = 0.5F);

/// DSC = 2*TP / (2*TP + FP + FN); returns 1 when both masks are empty.
double dice_score(const NDArray& pred, const NDArray& target,
                  float threshold = 0.5F);

}  // namespace dmis::nn
