// Decentralized iterative Diffusion balancer (paper §3.3, second algorithm).
//
// Starting from the current stage map, stages repeatedly exchange boundary
// layers with their pipeline neighbors to shrink pairwise load gaps — the
// "max neighbor averaging" protocol of Lemma 2.  Convergence is tracked by
// the Lyapunov potential
//     φ(r) = Σ_{u,v} |x_u(r) − x_v(r)|
// which the lemma proves monotonically non-increasing and γ-convergent in
// O(N² log(SN/γ) log N) rounds.  This implementation runs the protocol's
// rounds centrally; each round only uses neighbor-local information, so a
// per-rank implementation would exchange the same data with its neighbors.
//
// φ is computed in O(S) per round from the stages kept in ascending order of
// x (insertion sort after each round that moved a layer; a round that moved
// nothing leaves φ as it was): the gap between the k-th and (k+1)-th
// smallest x lies inside (k+1)(S−1−k) pairs.  Among rounds with the same
// bottleneck (within 1e-15) the placement with the lower φ is kept, so two
// such placements whose φ differ only by rounding may be told apart
// differently than by the pairwise sum.
#pragma once

#include <vector>

#include "pipeline/stage_map.hpp"

namespace dynmo::balance {

struct DiffusionRequest {
  std::vector<double> weights;       ///< per-layer load
  std::vector<double> memory_bytes;  ///< per-layer memory (may be empty)
  /// Per-stage relative capacity (compute throughput).  Empty → uniform.
  /// When set, the protocol diffuses *normalized* loads x_s = load_s / c_s
  /// (weighted diffusion with edge conductance min(c_a, c_b)), so stages
  /// converge to loads proportional to capacity — what a node of 8 GPUs
  /// vs. 4, or an H100 vs. an A100, actually wants.  φ, γ, and the
  /// bottleneck are all measured on x.
  std::vector<double> capacities;
  double mem_capacity = 0.0;         ///< per-stage cap; <=0 → unconstrained
  double gamma = 0.0;     ///< convergence threshold on φ; <=0 → 1e-3·Σx
  int max_rounds = 0;     ///< 0 → the Lemma-2 bound for this instance
};

struct DiffusionResult {
  pipeline::StageMap map;
  int rounds = 0;
  int layer_moves = 0;
  bool converged = false;
  /// Best-so-far φ after each round (φ(0) first).  Monotone non-increasing:
  /// the protocol may pass through transiently worse placements while
  /// realizing flows, but the best achievable balance only improves.
  std::vector<double> phi_history;
};

class DiffusionBalancer {
 public:
  DiffusionResult balance(const DiffusionRequest& req,
                          const pipeline::StageMap& start) const;

  /// φ(r) = Σ over *all pairs* of |x_u − x_v| (the lemma's potential),
  /// computed as Σ_k (x₍ₖ₊₁₎ − x₍ₖ₎)·(k+1)·(S−1−k) over a sorted copy in
  /// O(S log S).  Every term is non-negative, and the value depends only on
  /// the multiset of loads, never on their order.
  static double potential(std::span<const double> loads);

  /// The Lemma-2 round bound ~ 60·N²·ln(2N)·ln(S·N²/γ) for this instance.
  static int lemma2_round_bound(int num_stages, double total_load,
                                double gamma);
};

}  // namespace dynmo::balance
