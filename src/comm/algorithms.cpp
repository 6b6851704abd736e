#include "comm/algorithms.hpp"

#include <algorithm>
#include <cstring>

#include "comm/communicator.hpp"
#include "obs/trace.hpp"

namespace dmis::comm {

void ring_all_reduce(CollectiveOps& ops, std::span<float> data, float scale) {
  const size_t len = data.size();
  float* mine = data.data();
  const int n = ops.world();
  const int pos = ops.rank();
  if (n == 1 && scale != 1.0F) {
    for (size_t k = 0; k < len; ++k) mine[k] *= scale;
  }
  const size_t chunk_len =
      (len + static_cast<size_t>(n) - 1) / static_cast<size_t>(n);
  const auto chunk_begin = [&](int c) {
    return std::min(len, static_cast<size_t>(c) * chunk_len);
  };
  const auto chunk_end = [&](int c) {
    return std::min(len, (static_cast<size_t>(c) + 1) * chunk_len);
  };
  const float* theirs = ops.peer((pos - 1 + n) % n);

  // Phase 1 — reduce-scatter: at step s, rank i accumulates chunk
  // (i - 1 - s) mod n from its left neighbor. After n-1 steps rank i
  // holds the complete chunk (i + 1) mod n. The final step completes
  // that owned chunk, so a mean's 1/n lands there fused with the last
  // accumulation — every element is scaled exactly once, by its owner,
  // before the all-gather phase propagates it.
  {
    DMIS_TRACE_SPAN("comm.allreduce.reduce_scatter", {{"steps", n - 1}});
    for (int s = 0; s < n - 1; ++s) {
      const int c = ((pos - 1 - s) % n + n) % n;
      const size_t b = chunk_begin(c), e = chunk_end(c);
      if (s == n - 2 && scale != 1.0F) {
        for (size_t k = b; k < e; ++k) {
          mine[k] = (mine[k] + theirs[k]) * scale;
        }
      } else {
        for (size_t k = b; k < e; ++k) mine[k] += theirs[k];
      }
      ops.sync();
    }
  }

  // Phase 2 — all-gather: at step s, rank i copies chunk (i - s) mod n
  // (the one its left neighbor just completed/received).
  {
    DMIS_TRACE_SPAN("comm.allreduce.all_gather", {{"steps", n - 1}});
    for (int s = 0; s < n - 1; ++s) {
      const int c = ((pos - s) % n + n) % n;
      const size_t b = chunk_begin(c), e = chunk_end(c);
      if (e > b) std::memcpy(mine + b, theirs + b, (e - b) * sizeof(float));
      ops.sync();
    }
  }
}

}  // namespace dmis::comm
