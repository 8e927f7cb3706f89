// Deployment: the one object every cost surface consumes.
//
// A Deployment binds the three cluster facts the train → profile → balance
// → re-pack loop keeps needing — *who runs where, on what hardware, over
// which links*:
//
//   Topology          the physical graph (nodes, typed links)
//   grid(dp, stage)   the DP×PP placement ((replica, stage) → global rank;
//                     a plain pipeline is the dp = 1 special case)
//   per-rank GpuSpec  carried by the topology's nodes
//
// Before this type existed the same knowledge leaked through four side
// channels (CostBuilder's first_global_rank, CostModel's crosses_nodes
// bool, a single session-wide GpuSpec, topology-blind re-packing), which
// silently disagreed with each other.  A Deployment is an immutable value:
// construct it once (factories below), hand copies around freely (the
// topology is shared, copies are cheap), and ask it for
//
//   link(stage_a, stage_b)  the effective link between two stages' hosts
//   gpu(stage)              the GPU actually hosting a stage
//   group(ranks)            node-grouped membership for hierarchical
//                           collective pricing (comm::RankGroup)
//   dp_group(stage)         a stage's DP peers node-grouped — what the
//                           gradient allreduce is priced over
//   stage_capacities()      relative per-stage compute throughput, the
//                           weights capacity-aware diffusion normalizes by
//   make_cost_model()       a comm::CostModel resolved against this
//                           deployment (links *and* node membership)
//
// Single-stage accessors (gpu, node, link, stage_capacities, ...) read the
// dp = 0 replica — the canonical pipeline view every pre-grid call site
// keeps consuming; stage_to_rank(d) gives any other replica's placement.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "cluster/placement.hpp"
#include "cluster/topology.hpp"
#include "comm/cost_model.hpp"
#include "hw/gpu_spec.hpp"

namespace dynmo::cluster {

class Deployment {
 public:
  /// Bind an explicit placement.  Ranks must be valid topology ranks and
  /// pairwise distinct.
  static Deployment make(Topology topo, std::vector<int> stage_to_rank);
  /// Greedy topology-aware placement (adjacent stages on the fastest
  /// links); the default everything in the runtime uses.
  static Deployment make_topology_aware(
      Topology topo, int num_stages,
      std::size_t activation_bytes = kDefaultActivationBytes);

  /// Bind an explicit DP×PP grid: grid_to_rank[(d, s)] at
  /// [d * num_stages + s] (num_stages derived from the vector's size).
  /// Ranks must be valid and pairwise distinct across the whole grid.
  static Deployment make_grid(Topology topo, int data_parallel,
                              std::vector<int> grid_to_rank);
  /// Greedy topology-aware grid placement under an orientation: DpInner
  /// packs a stage's DP peers within a node (gradient allreduce on
  /// NVLink), PpInner packs a replica's pipeline (activations on NVLink).
  static Deployment make_grid_topology_aware(
      Topology topo, int data_parallel, int num_stages,
      GridOrientation orientation,
      std::size_t activation_bytes = kDefaultActivationBytes);

  int num_stages() const { return pp_; }
  int data_parallel() const { return dp_; }
  const Topology& topology() const { return *topo_; }
  /// (replica dp, stage) → global rank.
  int rank(int dp, int stage) const;
  /// dp = 0 view: stage → global rank.
  int rank(int stage) const { return rank(0, stage); }
  /// Replica dp's pipeline placement (a contiguous slice of the grid).
  std::span<const int> stage_to_rank(int dp) const;
  std::span<const int> stage_to_rank() const { return stage_to_rank(0); }
  /// The whole grid, replica-major.
  std::span<const int> grid_to_rank() const { return grid_; }
  /// The leading `num_stages` stages of every replica as their own
  /// Deployment (shares the topology).  This is the deployment of the
  /// surviving/acquired ranks across an elastic shrink or expand: packing
  /// releases *trailing* stages and expansion reclaims them, so the ranks
  /// the job owns at any worker count are exactly a prefix of the current
  /// placement.  (Re-placing from scratch would be wrong — a released rank
  /// may have been handed to another job.)  See docs/RUNTIME.md.
  Deployment prefix(int num_stages) const;

  /// The GPU hosting a stage (dp = 0 view) / a grid cell.
  const hw::GpuSpec& gpu(int stage) const;
  const hw::GpuSpec& gpu(int dp, int stage) const;
  /// Node hosting a stage (dp = 0 view).
  int node(int stage) const;
  /// Effective link between two stages' hosting ranks (shortest path over
  /// the topology; a stage to itself is free).  dp = 0 view.
  comm::LinkParams link(int stage_a, int stage_b) const;

  /// Node-grouped membership of a set of global ranks, with intra/inter
  /// links taken from the topology (worst member intra link, worst
  /// leader-pair effective link) — ready for the hierarchical collective
  /// formulas of comm::CostModel.
  comm::RankGroup group(std::span<const int> ranks) const;
  /// group() over the dp = 0 replica's stage-hosting ranks.
  comm::RankGroup stage_group() const;
  /// group() over a stage's DP peers {rank(0, s), ..., rank(dp-1, s)} —
  /// what the hierarchical gradient-allreduce formula prices.  Under
  /// DpInner the peers share nodes and the allreduce rides the intra
  /// links; under PpInner every peer sits on a different node and the
  /// formula degenerates to the flat cross-fabric ring.
  comm::RankGroup dp_group(int stage) const;

  /// Relative per-stage compute throughput (dp = 0 view), normalized so
  /// the fastest stage is 1.0 — the capacity weights heterogeneous
  /// balancing uses.
  std::vector<double> stage_capacities() const;
  /// Smallest device memory across the whole grid — the conservative
  /// per-worker cap re-packing and balancing enforce.
  double min_mem_capacity() const;

  /// CostModel resolved against this deployment: shortest-path links and
  /// topology node membership (see Topology::make_cost_model).
  comm::CostModel make_cost_model(comm::CostModelConfig base = {}) const;

 private:
  Deployment(std::shared_ptr<const Topology> topo, int data_parallel,
             std::vector<int> grid_to_rank);

  std::shared_ptr<const Topology> topo_;
  int dp_ = 1;
  int pp_ = 0;
  std::vector<int> grid_;  ///< (d, s) → rank at [d * pp_ + s]
};

}  // namespace dynmo::cluster
