#include "comm_sim.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "cluster/desim.hpp"
#include "common/check.hpp"

namespace dmis::cluster {

comm::CommCostParams cost_params_from(const ClusterSpec& spec) {
  comm::CommCostParams p;
  p.sync_us = spec.node.nvlink.latency_us;
  // A rendezvous that spans nodes pays the intra hop plus the IB hop.
  p.inter_sync_us = spec.node.nvlink.latency_us + spec.infiniband.latency_us;
  p.copy_gbs = spec.node.nvlink.bandwidth_gbs;
  // Accumulate streams read+read+write per element vs memcpy's
  // read+write: ~3/4 of the copy rate.
  p.reduce_gbs = spec.node.nvlink.bandwidth_gbs * 0.75;
  p.inter_gbs = spec.infiniband.bandwidth_gbs;
  // fp16 wire guesses off the same link: the codec streams at roughly
  // the copy rate, decode-add-encode at half the accumulate rate.
  p.fp16_pack_gbs = spec.node.nvlink.bandwidth_gbs;
  p.fp16_reduce_gbs = p.reduce_gbs * 0.5;
  return p;
}

comm::CommCostParams cost_params_from(const ClusterSpec& spec,
                                      const comm::CommCostParams& measured) {
  DMIS_CHECK(measured.copy_gbs > 0.0,
             "measured copy bandwidth must be positive, got "
                 << measured.copy_gbs);
  comm::CommCostParams p = cost_params_from(spec);
  const double link = spec.node.nvlink.bandwidth_gbs;
  p.reduce_gbs = link * (measured.reduce_gbs / measured.copy_gbs);
  p.fp16_pack_gbs = link * (measured.fp16_pack_gbs / measured.copy_gbs);
  p.fp16_reduce_gbs = link * (measured.fp16_reduce_gbs / measured.copy_gbs);
  return p;
}

double simulate_all_reduce(const comm::CommCostParams& params,
                           comm::AllReduceAlgo algo, size_t bytes,
                           int world, int ranks_per_node,
                           comm::WireFormat wire) {
  DMIS_CHECK(world >= 1, "bad world size " << world);
  int g = ranks_per_node;
  if (g <= 0 || g > world) g = world;
  const auto steps = comm::all_reduce_steps(
      algo, static_cast<double>(bytes), world, g);
  if (steps.empty()) return 0.0;
  const bool multi = g < world;
  const double alpha =
      (multi ? params.inter_sync_us : params.sync_us) * 1e-6;

  // Per-rank transfer time for one step. An inter-node pull is bounded
  // by both the local memory system and the node's shared IB link,
  // whose bandwidth divides among the node's concurrent pullers — the
  // contention the closed-form tuner only approximates.
  const auto work_seconds = [&](const comm::CollectiveStep& step,
                                int rank) {
    const comm::RankWork& w = step.work[static_cast<size_t>(rank)];
    if (w.peer < 0 || w.bytes <= 0.0) return 0.0;
    const double red_gbs = wire == comm::WireFormat::kFp16
                               ? params.fp16_reduce_gbs
                               : params.reduce_gbs;
    const double intra_bw =
        (w.reduce ? red_gbs : params.copy_gbs) * 1e9;
    double t = w.bytes / intra_bw;
    if (w.inter) {
      int pullers = 0;
      for (int r = 0; r < world; ++r) {
        const comm::RankWork& o = step.work[static_cast<size_t>(r)];
        if (o.peer >= 0 && o.inter &&
            comm::node_of(r, g) == comm::node_of(rank, g)) {
          ++pullers;
        }
      }
      t = std::max(t, w.bytes * pullers / (params.inter_gbs * 1e9));
    }
    return t;
  };

  // Every rank is an event chain: arrive at the step barrier; the last
  // arrival releases everyone alpha later; each rank then spends its
  // transfer time and arrives at the next barrier.
  EventSim sim;
  std::vector<int> waiting(steps.size(), 0);
  double finish = 0.0;
  std::function<void(size_t)> arrive = [&](size_t idx) {
    if (idx >= steps.size()) {
      finish = std::max(finish, sim.now());
      return;
    }
    if (++waiting[idx] == world) {
      sim.schedule(alpha, [&, idx] {
        for (int r = 0; r < world; ++r) {
          sim.schedule(work_seconds(steps[idx], r),
                       [&, idx] { arrive(idx + 1); });
        }
      });
    }
  };
  for (int r = 0; r < world; ++r) {
    sim.schedule(0.0, [&] { arrive(0); });
  }
  sim.run();
  return finish;
}

double simulate_grad_sync(const comm::CommCostParams& params,
                          comm::AllReduceAlgo algo, size_t logical_bytes,
                          int world, int ranks_per_node,
                          comm::WireFormat wire) {
  size_t wire_bytes = logical_bytes;
  double codec = 0.0;
  if (wire == comm::WireFormat::kFp16) {
    wire_bytes = comm::fp16_wire_floats(logical_bytes / sizeof(float)) *
                 sizeof(float);
    codec = 2.0 * static_cast<double>(logical_bytes) /
            (params.fp16_pack_gbs * 1e9);
  }
  return codec +
         simulate_all_reduce(params, algo, wire_bytes, world, ranks_per_node,
                             wire);
}

}  // namespace dmis::cluster
