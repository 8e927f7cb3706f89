// Two-level diffusion balancing over a hierarchical topology.
//
// Flat diffusion treats the pipeline as one path and happily ships layers
// across node boundaries to fix an imbalance that lives entirely inside a
// node — paying InfiniBand prices for an NVLink problem.  The hierarchical
// balancer exploits the topology: level 1 runs balance::DiffusionBalancer
// *within* each node's run of stages (NVLink-priced moves only); level 2
// runs the same protocol across node aggregates — one super-stage per
// node, capacity-weighted by the node's GPU throughput — and is entered
// only when intra-node rebalancing cannot close the remaining gap.  After
// a node-level shift, each node's new layer range is re-split and polished
// by another intra pass.
//
// The invariant consumed and produced is the usual contiguous StageMap;
// stage s runs on rank stage_to_rank[s] (identity by default), and the
// stages mapped to one node must be contiguous — which is exactly what
// cluster::place_* placements produce.
#pragma once

#include <span>
#include <vector>

#include "balance/diffusion.hpp"
#include "balance/migration.hpp"
#include "cluster/topology.hpp"
#include "pipeline/stage_map.hpp"

namespace dynmo::cluster {

struct HierConfig {
  /// Payoff-window acceptance for the inter-node level: adopt the level-2
  /// map only when its capacity-normalized bottleneck gain over the
  /// intra-only map, times this many iterations, covers the *extra*
  /// exposed transfer cost the inter map pays over the topology's links.
  /// The gain is in the units of req.weights, so this is meaningful when
  /// the balancer runs on time loads (seconds) — runtime::TrainingSession
  /// wires it only for BalanceBy::Time.  <= 0 → relative-gain check only.
  double payoff_window_iters = 0.0;
  /// Multiplies the priced inter-node migration cost; fold in every
  /// multiplicative factor on what a move really costs — DP replicas
  /// mirroring it, and any backprop-overlap discount on the exposed
  /// fraction (runtime::TrainingSession sets both).
  double migration_cost_multiplier = 1.0;
};

struct HierResult {
  pipeline::StageMap map;
  bool used_inter_node = false;
  int rounds = 0;            ///< diffusion rounds summed over both levels
  int intra_node_moves = 0;  ///< layers whose stage changed within a node
  int inter_node_moves = 0;  ///< layers that crossed a node boundary
  int layer_moves() const { return intra_node_moves + inter_node_moves; }
  double imbalance_before = 0.0;       ///< Eq. (2) on normalized loads
  double imbalance_after_intra = 0.0;  ///< after level 1 only
  double imbalance_after = 0.0;        ///< final
  bool converged = false;
  /// Level-2 result beat the relative-gain bar but was rejected because
  /// its extra exposed migration cost did not amortize within the payoff
  /// window.
  bool inter_rejected_by_payoff = false;
  /// Extra exposed cost (seconds) the rejected/adopted inter map would pay
  /// over the intra-only map; 0 when level 2 never ran.
  double inter_exposed_cost_s = 0.0;
};

class HierarchicalBalancer {
 public:
  explicit HierarchicalBalancer(const Topology& topo, HierConfig cfg = {})
      : topo_(&topo), cfg_(cfg) {}

  /// `req.capacities`, when set, gives per-stage speeds; otherwise they are
  /// derived from the topology.
  /// `stage_to_rank` defaults to stage s → rank s.
  HierResult balance(const balance::DiffusionRequest& req,
                     const pipeline::StageMap& start,
                     std::span<const int> stage_to_rank = {}) const;

  const HierConfig& config() const { return cfg_; }

 private:
  const Topology* topo_;
  HierConfig cfg_;
};

/// Migration traffic split by whether a transfer crosses a node boundary —
/// the quantity the hierarchical balancer exists to minimize.
struct MigrationSplit {
  double intra_node_bytes = 0.0;
  double inter_node_bytes = 0.0;
  double total_bytes() const { return intra_node_bytes + inter_node_bytes; }
};

MigrationSplit classify_migration(const balance::MigrationPlan& plan,
                                  const Topology& topo,
                                  std::span<const int> stage_to_rank = {});

}  // namespace dynmo::cluster
