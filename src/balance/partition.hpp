// Centralized Partition balancer (paper §3.3, first algorithm).
//
// Finds the contiguous layer→stage partition minimizing the bottleneck
// (maximum stage load) with the exact parametric search of Nicol 1994 and
// Pinar & Aykanat 2004: a greedy feasibility probe at a candidate cap, and
// after each probe the search interval snaps to caps a packing actually
// reaches (the largest stage load of a fitting probe, the smallest load a
// stage refused in a failing one), so it stops on the optimum itself, not
// within a tolerance of it.  Stage loads are summed left to right, as
// StageMap::stage_loads does.  Optionally subject to a per-worker memory
// capacity; when the memory constraint makes the load-optimal cut
// infeasible, the probe backs off to the best memory-legal cut.
//
// Lemma 1 (maximum imbalance reduction ⇔ minimum bubble ratio) is realized
// here exactly: the returned partition achieves the minimum possible
// max-stage-load over all contiguous partitions, hence the minimum pipeline
// bottleneck.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "pipeline/stage_map.hpp"

namespace dynmo::balance {

struct PartitionRequest {
  std::vector<double> weights;       ///< per-layer load
  std::vector<double> memory_bytes;  ///< per-layer memory (may be empty)
  double mem_capacity = 0.0;         ///< per-stage cap; <=0 → unconstrained
  int num_stages = 1;
  /// Relative per-stage speed factors (1.0 = healthy, 0.5 = half speed —
  /// e.g. a degraded GPU reported by the fault injector).  Empty →
  /// homogeneous.  When set (size == num_stages, all > 0) the search
  /// minimizes the *capacity-normalized* bottleneck max_s(load_s / cap_s),
  /// so layers route away from slow stages.
  std::vector<double> capacities;
};

struct PartitionResult {
  pipeline::StageMap map;
  double bottleneck = 0.0;  ///< max stage load achieved
  bool memory_feasible = true;
  /// Greedy packing passes over the layers this decision ran — the work
  /// counter its modeled decide cost is charged from (docs/COST_MODEL.md
  /// "Decide cost").
  int probes = 0;
};

class PartitionBalancer {
 public:
  /// Throws dynmo::Error on malformed input, including a weight or
  /// memory_bytes entry that is negative, NaN or infinite (the error names
  /// its index).  If the memory constraint is infeasible even ignoring load
  /// (some stage must exceed capacity), the result has
  /// memory_feasible=false and the least-bad map.  A stage that cannot hold
  /// even its first layer within its capacity-scaled budget still takes it:
  /// stages are never left empty ahead of a loaded one.
  PartitionResult balance(const PartitionRequest& req) const;

  /// The minimum achievable bottleneck over contiguous partitions into
  /// `num_stages` stages, ignoring memory: bit for bit the largest
  /// StageMap::stage_loads entry of an optimal map, and non-increasing in
  /// `num_stages`.  The elastic controller and the session's repack and
  /// quote paths price worker counts with it.  Throws like balance() on bad
  /// weights.
  static double optimal_bottleneck(std::span<const double> weights,
                                   int num_stages);

  /// The fewest contiguous stages with every stage load <= `cap` — one
  /// greedy probe.  Equal to the smallest a with optimal_bottleneck(weights,
  /// a) <= cap, at least 1; std::numeric_limits<int>::max() when a single
  /// layer exceeds `cap`.  Throws on a negative or NaN `cap` and on bad
  /// weights.
  static int min_stages(std::span<const double> weights, double cap);
};

}  // namespace dynmo::balance
