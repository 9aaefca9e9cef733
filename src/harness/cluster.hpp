// Parallel cluster runs: the scaling experiment on per-node engines.
//
// run_scaling() simulates every node of the cluster on one shared event
// engine; fine at the paper's 8 nodes, but a 256-node (1024-rank) run
// serializes hundreds of millions of independent events through a single
// queue. run_cluster() gives every node its own sim::Engine and drives
// them from a sim::ParallelCoordinator worker pool. The BSP job's
// barrier is the only cross-node coupling, so engines run freely
// between barriers (DESIGN.md §13) and the controller resolves each
// barrier with a single topology-aware collective draw.
//
// Determinism contract:
//   - any --cluster-jobs value (including 1) produces byte-identical
//     RunResults: each node's run context (flight recorder, metrics,
//     fault injector, trace clock) travels with its engine slice, and
//     all inter-phase work is single-threaded on the controller;
//   - at nodes=1 the result is byte-identical to run_scaling() — full
//     bridge to the shared-engine path (trace stream included);
//   - at any node count, runtime/fault tables match run_scaling()
//     exactly under the flat topology at <= 32 nodes: between barriers
//     the per-node event trajectories are independent, so splitting the
//     shared engine per node preserves them.
// One documented divergence: injection call indices count per node
// rather than globally (each group arms its own injector), so injection
// runs are compared per path, not across paths.
#pragma once

#include <cstdint>

#include "cluster/network.hpp"
#include "harness/experiment.hpp"

namespace hpmmap::harness {

struct ClusterRunConfig {
  /// The experiment shape, identical to run_scaling's knobs.
  ScalingRunConfig scaling{};
  /// Interconnect topology for the collectives (kFlat reproduces the
  /// paper's single-switch model; kTree needs power-of-two nodes).
  cluster::Topology topology = cluster::Topology::kFlat;
  /// Worker threads driving the per-node engines; 0 = hardware
  /// concurrency, 1 = the inline deterministic reference.
  unsigned cluster_jobs = 1;
};

/// Run one cluster trial on per-node engines. See the determinism
/// contract above.
[[nodiscard]] RunResult run_cluster(const ClusterRunConfig& config);

/// Trial loop over trial_seeds(scaling.seed, trials), folded exactly like
/// run_trials (mean/stdev of runtime, events and faults summed in trial
/// order). Trials run serially — each trial already spreads its nodes
/// over the cluster_jobs worker pool.
[[nodiscard]] SeriesPoint run_cluster_trials(ClusterRunConfig config, std::uint32_t trials);

} // namespace hpmmap::harness
