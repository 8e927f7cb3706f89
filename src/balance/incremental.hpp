// Incremental decision-path surfaces (ROADMAP "scale the decision path to
// 10k+ ranks").
//
// Every rebalance point used to re-price the whole grid: per-stage load
// sums were re-summed over all L layers, the bottleneck re-found with an
// O(S) scan, and the migration plan re-diffed over all L layers — per
// *decision*, at thousands of stages.  But a candidate move touches O(1)
// stages, so this module keeps the per-stage terms cached and answers the
// decision-point queries incrementally:
//
//   MaxTree      tournament tree over per-stage bottleneck terms —
//                O(log S) point update, O(1) max/argmax, ties broken
//                exactly like std::max_element (lowest index wins).
//   CostSurface  per-stage load/price cache for one (map, profile,
//                capacities) snapshot: sync() re-sums only the stages
//                whose inputs changed, evaluate() prices a candidate map
//                by recomputing only the stages its boundary moves touch.
//
// Equivalence contract (docs/COST_MODEL.md "Incremental recomputation"):
// every value the incremental path produces is *bit-identical* to the
// naive full rescan it replaces, not merely close.  Three rules make that
// possible:
//
//   1. A touched stage is re-summed left-to-right over its layers — the
//      exact FP summation order of StageMap::stage_loads — never patched
//      with add/subtract deltas (which would round differently).
//   2. MaxTree's tie-break (left child wins on equality) reproduces
//      std::max_element's first-max semantics, so even the *argmax* agrees.
//   3. The incremental migration planner emits transfers in ascending
//      layer order and re-derives src/dst per layer, exactly like the
//      full diff; it merely skips the layers provably outside any
//      boundary-difference interval (an integer argument, no FP involved).
//
// The surfaces have naive reference twins — evaluate_full_rescan below,
// plan_migration_full_rescan, and MaxTree's in tests/cost_oracles.hpp —
// kept alive under test:
// tests/test_incremental_cost.cpp drives randomized perturbation streams
// through both paths and asserts exact (EXPECT_EQ) equality.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "balance/migration.hpp"
#include "pipeline/stage_map.hpp"

namespace dynmo::balance {

/// Tournament (segment) tree over a fixed-size array of doubles.
/// max_value()/argmax() are O(1) reads of the root; set() is O(log n).
/// Ties resolve to the lowest index — the same element
/// *std::max_element(v.begin(), v.end()) returns — so callers can swap a
/// full scan for the root without changing a single decision.
class MaxTree {
 public:
  MaxTree() = default;

  /// Rebuild over `values` (O(n)).
  void reset(std::span<const double> values);
  /// Point update, O(log n).
  void set(std::size_t i, double v);
  double get(std::size_t i) const;

  double max_value() const;
  std::size_t argmax() const;

  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  /// Heap footprint of the tree's arrays (near-linear-memory gate).
  std::size_t memory_bytes() const;

 private:
  void pull(std::size_t node);

  std::size_t n_ = 0;
  std::size_t cap_ = 0;               ///< leaf span (power of two >= n_)
  std::vector<double> val_;           ///< 2*cap_ tree nodes
  std::vector<std::uint32_t> idx_;    ///< argmax leaf index per node
};

/// What CostSurface::evaluate() learned about a candidate map.  The
/// `norm_*` fields are the capacity-normalized bottlenecks the Rebalancer's
/// acceptance rules compare (weights currency for the hysteresis, time
/// currency for the payoff window).
struct SurfaceEval {
  MigrationPlan plan;
  double norm_w_before = 0.0;
  double norm_w_after = 0.0;
  double norm_t_before = 0.0;
  double norm_t_after = 0.0;
  /// Stages whose sums were recomputed for this candidate (bench counter).
  std::size_t touched_stages = 0;
};

/// The naive evaluator, CostSurface::evaluate's reference twin: prices the
/// move `before` → `candidate` from scratch in O(L + S) — full
/// StageMap::stage_loads divided by max(1e-12, capacity), std::max_element,
/// and the full-diff migration plan.  `capacities` empty → uniform;
/// otherwise it must cover every stage.  `touched_stages` is 0: nothing
/// is cached.
SurfaceEval evaluate_full_rescan(const pipeline::StageMap& before,
                                 const pipeline::StageMap& candidate,
                                 std::span<const double> weights,
                                 std::span<const double> time_s,
                                 std::span<const double> mem_bytes,
                                 std::span<const double> capacities);

/// Cached per-stage cost terms for one (stage map, per-layer profile,
/// capacities) snapshot, in two currencies at once: the balancing weights
/// (whatever BalanceBy selected) and the profile's time loads (seconds,
/// what the payoff rule prices).  sync() absorbs input changes by
/// re-summing only the touched stages; evaluate() prices a candidate map
/// with an undo log so a rejected candidate rolls back in O(touched).
class CostSurface {
 public:
  /// Full rebuild — by construction the same left-to-right per-stage sums
  /// a naive rescan produces.
  void reset(const pipeline::StageMap& map, std::span<const double> weights,
             std::span<const double> time_s,
             std::span<const double> mem_bytes,
             std::span<const double> capacities);

  bool ready() const { return map_.num_stages() > 0; }

  /// Absorb a new snapshot: full reset when the map shape, the layer
  /// count, or the capacities changed; otherwise diff the per-layer inputs
  /// and re-sum only the stages hosting a changed layer.  Returns the
  /// number of stages recomputed (== num_stages on a full reset).
  std::size_t sync(const pipeline::StageMap& map,
                   std::span<const double> weights,
                   std::span<const double> time_s,
                   std::span<const double> mem_bytes,
                   std::span<const double> capacities);

  const pipeline::StageMap& map() const { return map_; }
  /// Cached per-stage sums (identical values to map().stage_loads(...)).
  std::span<const double> stage_loads_w() const { return sum_w_; }
  std::span<const double> stage_loads_t() const { return sum_t_; }
  std::span<const double> layer_mem_bytes() const { return m_; }

  /// Capacity-normalized bottleneck of the current map, O(1) off the tree.
  double bottleneck_w() const { return tree_w_.max_value(); }
  double bottleneck_t() const { return tree_t_.max_value(); }

  /// Price a candidate map incrementally: recompute only the stages whose
  /// boundaries moved, leaving an undo overlay in place.  Exactly one of
  /// commit()/rollback() must follow before the next evaluate()/sync().
  SurfaceEval evaluate(const pipeline::StageMap& candidate);

  /// Adopt the last evaluated candidate as the current map.
  void commit();
  /// Discard the last evaluated candidate, restoring the cached terms.
  void rollback();

  /// Heap footprint of all cached arrays (near-linear-memory gate).
  std::size_t memory_bytes() const;

 private:
  double norm_w(std::size_t s) const;
  double norm_t(std::size_t s) const;
  /// Re-sum stage s left-to-right from `b` (StageMap summation order) and
  /// push the normalized terms into the trees.
  void recompute_stage(std::size_t s, const std::vector<std::size_t>& b);

  pipeline::StageMap map_;
  std::vector<double> w_;  ///< per-layer balancing weights
  std::vector<double> t_;  ///< per-layer time loads (seconds)
  std::vector<double> m_;  ///< per-layer migration state bytes
  std::vector<double> caps_;
  std::vector<double> sum_w_;  ///< per-stage sums, StageMap order
  std::vector<double> sum_t_;
  MaxTree tree_w_;
  MaxTree tree_t_;

  struct Undo {
    std::size_t stage;
    double sum_w;
    double sum_t;
  };
  bool overlay_ = false;
  pipeline::StageMap cand_;
  std::vector<Undo> undo_;
};

}  // namespace dynmo::balance
