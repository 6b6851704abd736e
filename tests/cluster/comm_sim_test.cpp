// Cross-validation of the comm layer's two cost models against each
// other — the tentpole gate of the self-tuning collectives PR. The
// AlgoTuner scores ring/tree/hier with closed-form alpha-beta formulas
// written independently of the declarative schedule; the cluster DES
// executes that schedule event by event (barrier rendezvous, per-rank
// transfers, shared-IB contention). On a grid of (world size, message
// size) points over the paper's MareNostrum-CTE topology, every
// confidently-predicted ordering must match the simulated ordering.
#include "comm_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "cluster/topology.hpp"
#include "comm/algo_tuner.hpp"

namespace dmis::cluster {
namespace {

using comm::AllReduceAlgo;

constexpr AllReduceAlgo kAlgos[] = {
    AllReduceAlgo::kRing, AllReduceAlgo::kTree, AllReduceAlgo::kHier};

std::vector<size_t> grid_sizes() {
  return {4096,          65536,         size_t{1} << 20U,
          size_t{4} << 20U, size_t{16} << 20U, size_t{128} << 20U};
}

// Relative margin between two costs, normalized by the smaller one.
double margin(double a, double b) {
  const double lo = std::min(a, b);
  return lo > 0.0 ? (b - a) / lo : 0.0;
}

// The acceptance gate: on every grid point, for every algorithm pair
// where *both* models see a confident (>5%) gap, the models must agree
// on which algorithm is faster; and wherever the tuner's winner leads
// by >10%, the simulator must crown the same winner.
TEST(CommSimCrossValidation, TunerRankingMatchesSimulatedRanking) {
  const ClusterSpec spec = ClusterSpec::marenostrum_cte();
  const comm::CommCostParams params = cost_params_from(spec);
  const int g = spec.node.gpus_per_node;  // 4 ranks per node
  for (const int world : {8, 16}) {
    const comm::AlgoTuner tuner(params, world, g);
    for (const size_t bytes : grid_sizes()) {
      std::map<AllReduceAlgo, double> predicted;
      std::map<AllReduceAlgo, double> simulated;
      for (const AllReduceAlgo algo : kAlgos) {
        predicted[algo] = tuner.predict_seconds(algo, bytes);
        simulated[algo] = simulate_all_reduce(params, algo, bytes, world, g);
        EXPECT_GT(predicted[algo], 0.0);
        EXPECT_GT(simulated[algo], 0.0);
      }
      const auto ctx = [&](AllReduceAlgo a, AllReduceAlgo b) {
        return std::string("world=") + std::to_string(world) +
               " bytes=" + std::to_string(bytes) + " " +
               comm::all_reduce_algo_name(a) + " vs " +
               comm::all_reduce_algo_name(b);
      };
      // Pairwise concordance at 5% confidence.
      for (const AllReduceAlgo a : kAlgos) {
        for (const AllReduceAlgo b : kAlgos) {
          if (a >= b) continue;
          const double pm = margin(predicted[a], predicted[b]);
          const double sm = margin(simulated[a], simulated[b]);
          if (std::abs(pm) > 0.05 && std::abs(sm) > 0.05) {
            EXPECT_GT(pm * sm, 0.0)
                << ctx(a, b) << ": tuner margin " << pm
                << " disagrees with simulated margin " << sm;
          }
        }
      }
      // Argmin agreement whenever the tuner is confident.
      const AllReduceAlgo choice = tuner.choose(bytes);
      double runner_up = -1.0;
      for (const AllReduceAlgo algo : kAlgos) {
        if (algo == choice) continue;
        if (runner_up < 0.0 || predicted[algo] < runner_up) {
          runner_up = predicted[algo];
        }
      }
      if (margin(predicted[choice], runner_up) > 0.10) {
        AllReduceAlgo sim_best = kAlgos[0];
        for (const AllReduceAlgo algo : kAlgos) {
          if (simulated[algo] < simulated[sim_best]) sim_best = algo;
        }
        EXPECT_EQ(sim_best, choice)
            << "world=" << world << " bytes=" << bytes
            << ": tuner confidently picked "
            << comm::all_reduce_algo_name(choice) << " but the DES ran "
            << comm::all_reduce_algo_name(sim_best) << " fastest";
      }
    }
  }
}

// Physics sanity on the paper topology, asserted for BOTH models: small
// messages are latency-bound (tree's 2 log p rendezvous beat the ring's
// 2(n-1)); large multi-node messages are IB-bound (hier's one puller
// per node link beats tree's far exchanges dragging S/2 across IB).
TEST(CommSimCrossValidation, RegimesMatchTopologyIntuition) {
  const ClusterSpec spec = ClusterSpec::marenostrum_cte();
  const comm::CommCostParams params = cost_params_from(spec);
  const int world = 8;
  const int g = spec.node.gpus_per_node;
  const comm::AlgoTuner tuner(params, world, g);

  const size_t small = 4096;
  EXPECT_LT(tuner.predict_seconds(AllReduceAlgo::kTree, small),
            tuner.predict_seconds(AllReduceAlgo::kRing, small));
  EXPECT_LT(simulate_all_reduce(params, AllReduceAlgo::kTree, small, world, g),
            simulate_all_reduce(params, AllReduceAlgo::kRing, small, world, g));

  const size_t large = size_t{128} << 20U;
  EXPECT_LT(tuner.predict_seconds(AllReduceAlgo::kHier, large),
            tuner.predict_seconds(AllReduceAlgo::kTree, large));
  EXPECT_LT(simulate_all_reduce(params, AllReduceAlgo::kHier, large, world, g),
            simulate_all_reduce(params, AllReduceAlgo::kTree, large, world, g));
}

// On a flat (single-node) topology the hierarchical schedule *is* the
// ring schedule, so the DES must time them identically.
TEST(CommSimTest, FlatTopologyHierCollapsesToRing) {
  const comm::CommCostParams params =
      cost_params_from(ClusterSpec::marenostrum_cte());
  for (const size_t bytes : grid_sizes()) {
    EXPECT_DOUBLE_EQ(
        simulate_all_reduce(params, AllReduceAlgo::kHier, bytes, 4, 0),
        simulate_all_reduce(params, AllReduceAlgo::kRing, bytes, 4, 0));
  }
}

TEST(CommSimTest, LoneRankIsInstantAndRepeatsAreDeterministic) {
  const comm::CommCostParams params =
      cost_params_from(ClusterSpec::marenostrum_cte());
  for (const AllReduceAlgo algo : kAlgos) {
    EXPECT_DOUBLE_EQ(
        simulate_all_reduce(params, algo, 1U << 20U, /*world=*/1, 0), 0.0);
    const double a = simulate_all_reduce(params, algo, 1U << 20U, 8, 4);
    const double b = simulate_all_reduce(params, algo, 1U << 20U, 8, 4);
    EXPECT_DOUBLE_EQ(a, b);
  }
}

// Faster links never slow a schedule down (event-level monotonicity).
TEST(CommSimTest, MoreInterBandwidthNeverSlower) {
  const comm::CommCostParams base =
      cost_params_from(ClusterSpec::marenostrum_cte());
  comm::CommCostParams fat = base;
  fat.inter_gbs *= 4.0;
  for (const AllReduceAlgo algo : kAlgos) {
    for (const size_t bytes : grid_sizes()) {
      EXPECT_LE(simulate_all_reduce(fat, algo, bytes, 8, 4),
                simulate_all_reduce(base, algo, bytes, 8, 4))
          << comm::all_reduce_algo_name(algo) << " bytes=" << bytes;
    }
  }
}

// The MareNostrum mapping itself: NVLink latency/bandwidth inside the
// node, EDR IB between nodes, accumulate at ~3/4 of copy.
TEST(CommSimTest, CostParamsFromSpecMapLinks) {
  const ClusterSpec spec = ClusterSpec::marenostrum_cte();
  const comm::CommCostParams p = cost_params_from(spec);
  EXPECT_DOUBLE_EQ(p.sync_us, spec.node.nvlink.latency_us);
  EXPECT_DOUBLE_EQ(p.inter_sync_us,
                   spec.node.nvlink.latency_us + spec.infiniband.latency_us);
  EXPECT_DOUBLE_EQ(p.copy_gbs, spec.node.nvlink.bandwidth_gbs);
  EXPECT_DOUBLE_EQ(p.reduce_gbs, spec.node.nvlink.bandwidth_gbs * 0.75);
  EXPECT_DOUBLE_EQ(p.inter_gbs, spec.infiniband.bandwidth_gbs);
  EXPECT_GT(p.copy_gbs, p.reduce_gbs);
}

// Measured-calibration feedback: the overload rescales the spec's link
// bandwidth by the host-measured reduce/copy (and codec/copy) ratios,
// so DES predictions use a beta with the same shape the real machine
// showed instead of the 0.75 guess.
TEST(CommSimTest, CostParamsFromMeasuredScalesDerates) {
  const ClusterSpec spec = ClusterSpec::marenostrum_cte();
  comm::CommCostParams measured;  // as AlgoTuner calibration fills it
  measured.copy_gbs = 10.0;
  measured.reduce_gbs = 6.0;          // 0.6 of copy on this host
  measured.fp16_pack_gbs = 9.0;       // 0.9
  measured.fp16_reduce_gbs = 5.0;     // 0.5
  const comm::CommCostParams p = cost_params_from(spec, measured);

  const double link = spec.node.nvlink.bandwidth_gbs;
  EXPECT_DOUBLE_EQ(p.copy_gbs, link);  // the link itself is the spec's
  EXPECT_DOUBLE_EQ(p.reduce_gbs, link * 0.6);
  EXPECT_DOUBLE_EQ(p.fp16_pack_gbs, link * 0.9);
  EXPECT_DOUBLE_EQ(p.fp16_reduce_gbs, link * 0.5);
  // Latencies still come from the spec, not the measurement.
  EXPECT_DOUBLE_EQ(p.sync_us, spec.node.nvlink.latency_us);
  EXPECT_DOUBLE_EQ(p.inter_gbs, spec.infiniband.bandwidth_gbs);
}

// fp16 wire in the DES: reduce steps run at fp16_reduce_gbs over the
// bytes actually moved. With the fp16 bandwidth pinned to the fp32 one
// the schedules must time identically (byte count is the caller's
// concern); with a realistic fp16 derate the compressed *half-size*
// payload is still never slower than the full-size fp32 one.
TEST(CommSimTest, Fp16WireSwapsReduceBandwidth) {
  comm::CommCostParams params =
      cost_params_from(ClusterSpec::marenostrum_cte());
  params.fp16_reduce_gbs = params.reduce_gbs;
  for (const AllReduceAlgo algo : kAlgos) {
    for (const size_t bytes : grid_sizes()) {
      EXPECT_DOUBLE_EQ(
          simulate_all_reduce(params, algo, bytes, 8, 4,
                              comm::WireFormat::kFp16),
          simulate_all_reduce(params, algo, bytes, 8, 4));
    }
  }
  params = cost_params_from(ClusterSpec::marenostrum_cte());
  for (const AllReduceAlgo algo : kAlgos) {
    for (const size_t bytes : grid_sizes()) {
      EXPECT_LE(simulate_all_reduce(params, algo, (bytes + 1) / 2, 8, 4,
                                    comm::WireFormat::kFp16),
                simulate_all_reduce(params, algo, bytes, 8, 4))
          << comm::all_reduce_algo_name(algo) << " bytes=" << bytes;
    }
  }
}

// simulate_grad_sync is the DES counterpart of the tuner's
// predict_sync_seconds: codec passes plus the collective over wire
// bytes. Under kFp32 it is exactly simulate_all_reduce; under kFp16
// the two models must agree on *when compression pays* for any
// algorithm the tuner would pick.
TEST(CommSimTest, GradSyncComposesCodecAndCollective) {
  const comm::CommCostParams params =
      cost_params_from(ClusterSpec::marenostrum_cte());
  const size_t logical = size_t{4} << 20U;
  for (const AllReduceAlgo algo : kAlgos) {
    EXPECT_DOUBLE_EQ(
        simulate_grad_sync(params, algo, logical, 8, 4,
                           comm::WireFormat::kFp32),
        simulate_all_reduce(params, algo, logical, 8, 4));
    const double fp16 =
        simulate_grad_sync(params, algo, logical, 8, 4,
                           comm::WireFormat::kFp16);
    const double wire_only = simulate_all_reduce(
        params, algo, comm::fp16_wire_floats(logical / 4) * 4, 8, 4,
        comm::WireFormat::kFp16);
    // Codec cost is additive and strictly positive.
    EXPECT_GT(fp16, wire_only);
    EXPECT_NEAR(fp16 - wire_only,
                2.0 * static_cast<double>(logical) /
                    (params.fp16_pack_gbs * 1e9),
                1e-12);
  }
}

}  // namespace
}  // namespace dmis::cluster
