// The all-reduce schedule behind comm::Communicator: the chunked ring
// NCCL uses — reduce-scatter + all-gather, 2(n-1) barrier-separated
// steps of S/n bytes each. Bandwidth-optimal per rank; latency grows
// linearly in n.
//
// The ring runs over the group's rendezvous substrate: the global
// deadline-aware barrier, one sync per step, every rank in lockstep.
// That is what keeps the collective sequence check, per-collective
// deadlines, abort()/poison and the elastic agreement round working
// inside the schedule.
#pragma once

#include <span>

namespace dmis::comm {

class CollectiveOps;  // defined in communicator.hpp

/// Runs the chunked ring all-reduce on `data` for one rank. On entry
/// every rank's buffer is registered and visible (the caller synced
/// once); on return the ring's final sync guarantees no peer still
/// reads this rank's buffer. `scale` is folded into the last
/// accumulation of each element (mean fusion): the result is exactly
/// (unscaled sum) * scale, bit-for-bit.
void ring_all_reduce(CollectiveOps& ops, std::span<float> data, float scale);

}  // namespace dmis::comm
