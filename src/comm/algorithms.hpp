// Pluggable all-reduce algorithms for comm::Communicator.
//
// The Communicator used to hard-code one chunked ring. This layer
// factors the ring out into an AllReduceStrategy and adds two more
// schedules with genuinely different cost shapes:
//
//  * RingAllReduce — reduce-scatter + all-gather, 2(n-1) steps of S/n
//    bytes. Bandwidth-optimal per rank; latency grows linearly in n.
//  * TreeAllReduce — recursive halving (reduce-scatter) + recursive
//    doubling (all-gather) over the largest power-of-two subgroup,
//    with leftover ranks folded in/out at the edges. 2*log2(p) steps:
//    latency-optimal for small messages, but large early steps move
//    S/2 bytes at distance p/2 — punishing when distant ranks sit on
//    the far side of a slow inter-node link.
//  * HierarchicalAllReduce — intra-node ring all-reduce per node
//    group, recursive halving/doubling across the node *leaders*, then
//    an intra-node broadcast. Only leaders ever cross the inter-node
//    link (m transfers per step instead of up to n), which is the
//    whole point on NVLink-inside / InfiniBand-outside topologies.
//
// Every strategy runs over the same rendezvous substrate: the global
// deadline-aware barrier, one sync per step, every rank in lockstep
// (ranks with no work in a step still sync). That keeps the collective
// sequence check, per-collective deadlines, abort()/poison and the
// elastic agreement round working identically under all algorithms.
//
// The same step structure is exported declaratively via
// all_reduce_steps() so the AlgoTuner's closed-form cost model and the
// DES oracle in tests/cluster/comm_sim can be cross-validated against
// one executable description of what each algorithm actually does.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "comm/compress.hpp"

namespace dmis::comm {

class CollectiveOps;  // defined in communicator.hpp

/// Which all-reduce schedule to run. kAuto defers to the AlgoTuner at
/// each collective (choice is a pure function of message size, so all
/// ranks of an SPMD program pick the same algorithm).
enum class AllReduceAlgo : uint8_t {
  kRing = 0,
  kTree = 1,
  kHier = 2,
  kAuto = 3,
};

/// "ring" / "tree" / "hier" / "auto".
const char* all_reduce_algo_name(AllReduceAlgo algo);

/// Inverse of all_reduce_algo_name; nullopt on anything else.
std::optional<AllReduceAlgo> parse_all_reduce_algo(const std::string& name);

/// DMIS_COMM_ALGO if set (must parse, else DMIS_CHECK fires); nullopt
/// when unset/empty. The env override always wins over GroupOptions.
std::optional<AllReduceAlgo> env_all_reduce_algo();

/// DMIS_COMM_RANKS_PER_NODE if set (>= 0; 0 = flat/single-node);
/// nullopt when unset/empty.
std::optional<int> env_ranks_per_node();

/// One all-reduce schedule. Stateless; the Communicator hands each
/// rank's view of the rendezvous machinery in via CollectiveOps. On
/// entry every rank's buffer is registered and visible (the caller
/// synced once); on return the strategy's own final sync guarantees no
/// peer still reads this rank's buffer. `scale` is folded into the last
/// accumulation of each element (mean fusion): the result is exactly
/// (unscaled result) * scale, bit-for-bit, for every algorithm. `wire`
/// selects the element kernels (compress.hpp): the schedule — chunk
/// splits, peers, barriers — is wire-format-agnostic because chunks
/// address float slots and slots are opaque to copies.
class AllReduceStrategy {
 public:
  virtual ~AllReduceStrategy() = default;
  virtual AllReduceAlgo algo() const = 0;
  virtual void run(CollectiveOps& ops, std::span<float> data, float scale,
                   WireFormat wire = WireFormat::kFp32) const = 0;
};

/// The process-wide strategy singletons. `algo` must be a concrete
/// algorithm (not kAuto).
const AllReduceStrategy& strategy_for(AllReduceAlgo algo);

// ---------------------------------------------------------------------
// Declarative step schedule — the shared ground truth for cost models.

/// Node id of `rank` under contiguous assignment (ranks_per_node == 0
/// or >= world means one flat node).
int node_of(int rank, int ranks_per_node);

/// What one rank does during one lockstep barrier-to-barrier window.
struct RankWork {
  double bytes = 0.0;  ///< payload this rank pulls from its peer
  int peer = -1;       ///< rank it reads from (-1: idle this step)
  bool inter = false;  ///< transfer crosses a node boundary
  bool reduce = false; ///< accumulate (float adds) vs plain copy
};

/// One barrier-separated step of a schedule; `work.size() == world`.
struct CollectiveStep {
  std::vector<RankWork> work;
};

/// The exact lockstep schedule `strategy_for(algo)` executes for a
/// payload of `bytes` over `world` ranks with `ranks_per_node` ranks
/// per node (0 = flat). One entry per barrier; per-rank byte counts
/// use the uniform chunk approximation bytes/chunks.
std::vector<CollectiveStep> all_reduce_steps(AllReduceAlgo algo,
                                             double bytes, int world,
                                             int ranks_per_node);

}  // namespace dmis::comm
