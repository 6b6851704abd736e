// Full-volume and sliding-window inference helpers.
//
// The paper's pipeline crops volumes so every spatial extent divides
// 2^(depth-1); at inference time arbitrary geometry must be served, so
// infer_padded() zero-pads the volume up to the next valid extents,
// runs the network in eval mode, and crops the probability map back to
// the original geometry — the standard full-volume (non-subpatching)
// serving path the paper advocates.
//
// infer_sliding_window() is the fallback for volumes too large for
// full-volume mode (the MIScnn/MIST production serving pattern): the
// volume is tiled into fixed-size cores, each core is run with a halo
// of real surrounding context, and overlapping predictions are blended
// with a Gaussian weight centered on each core. With a halo at least
// as large as the network's receptive-field radius, tile origins
// aligned to the pooling grid make every core prediction identical to
// the full-volume one (shift equivariance holds at multiples of the
// stride product), so the two modes agree to float rounding. This
// requires spatially local layers: batch norm in eval mode qualifies; a
// norm over whole-input statistics would not.
#pragma once

#include <functional>

#include "nn/unet3d.hpp"

namespace dmis::nn {

/// Zero-pads `input` (N, C, D, H, W) spatially so each extent is a
/// multiple of `divisor` (padding split evenly, extra voxel at the far
/// side).
NDArray pad_to_divisible(const NDArray& input, int64_t divisor);

/// Crops `padded` back to the target spatial extents (inverse of
/// pad_to_divisible for matching geometry).
NDArray crop_spatial(const NDArray& padded, int64_t depth, int64_t height,
                     int64_t width);

/// Runs `net` on a batch of volumes of arbitrary spatial geometry.
NDArray infer_padded(UNet3d& net, const NDArray& input);

struct SlidingWindowOptions {
  /// Core tile extents. Rounded up to the network's spatial divisor and
  /// clamped to the (padded) volume, so any positive value is legal.
  int64_t patch_depth = 32;
  int64_t patch_height = 32;
  int64_t patch_width = 32;
  /// Fraction of each core shared with its neighbor (0 = edge-to-edge
  /// tiling). The effective stride is rounded to the divisor grid so
  /// every tile stays pooling-aligned with the full volume.
  double overlap = 0.0;
  /// Context voxels read from the real volume around each core (per
  /// side, rounded up to the divisor). A halo >= the receptive-field
  /// radius makes tiled predictions match full-volume ones exactly.
  int64_t halo = 0;
  /// Gaussian blend sigma as a fraction of the core extent.
  double gaussian_sigma_scale = 0.125;
  /// Invoked before each tile's forward pass; may throw to abandon the
  /// inference (deadline checks, fault injection). Also invoked once by
  /// full-volume serving before its single forward pass.
  std::function<void()> tile_hook;
};

/// Sliding-window patch inference over one volume (N must be 1).
/// Returns per-voxel probabilities with the input's exact geometry.
NDArray infer_sliding_window(UNet3d& net, const NDArray& input,
                             const SlidingWindowOptions& options);

}  // namespace dmis::nn
