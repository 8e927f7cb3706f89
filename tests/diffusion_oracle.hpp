// Reference Diffusion balancer for the differential test in
// test_balancers.cpp: the protocol as first written, with the O(S²)
// pairwise potential evaluated twice per round and a fresh sweep buffer
// each round.  DiffusionBalancer::balance must reproduce its rounds, layer
// moves and convergence exactly; its map may differ only where two
// placements tie on the bottleneck and their φ differ by rounding.
#pragma once

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <vector>

#include "balance/diffusion.hpp"
#include "core/error.hpp"

namespace dynmo::testing {

using balance::DiffusionBalancer;
using balance::DiffusionRequest;
using balance::DiffusionResult;

/// φ = Σ_{u<v} |x_u − x_v|, summed pair by pair.
inline double pairwise_potential(std::span<const double> loads) {
  double phi = 0.0;
  for (std::size_t u = 0; u < loads.size(); ++u) {
    for (std::size_t v = u + 1; v < loads.size(); ++v) {
      phi += std::abs(loads[u] - loads[v]);
    }
  }
  return phi;
}

struct OracleBoundaries {
  std::vector<std::size_t> b;  // S+1 entries

  double stage_load(int s, std::span<const double> w) const {
    double acc = 0.0;
    for (std::size_t l = b[static_cast<std::size_t>(s)];
         l < b[static_cast<std::size_t>(s) + 1]; ++l) {
      acc += w[l];
    }
    return acc;
  }
  double stage_mem(int s, std::span<const double> mem) const {
    if (mem.empty()) return 0.0;
    double acc = 0.0;
    for (std::size_t l = b[static_cast<std::size_t>(s)];
         l < b[static_cast<std::size_t>(s) + 1]; ++l) {
      acc += mem[l];
    }
    return acc;
  }
};

inline DiffusionResult diffusion_oracle(const DiffusionRequest& req,
                                        const pipeline::StageMap& start) {
  DYNMO_CHECK(!req.weights.empty(), "no layers to balance");
  DYNMO_CHECK(start.num_layers() == req.weights.size(),
              "stage map covers " << start.num_layers() << " layers, weights "
                                  << req.weights.size());
  DYNMO_CHECK(req.memory_bytes.empty() ||
                  req.memory_bytes.size() == req.weights.size(),
              "memory vector size mismatch");

  const std::span<const double> w(req.weights);
  const std::span<const double> mem(req.memory_bytes);
  const int S = start.num_stages();
  DYNMO_CHECK(req.capacities.empty() ||
                  req.capacities.size() == static_cast<std::size_t>(S),
              "capacity vector covers " << req.capacities.size()
                                        << " stages, map has " << S);
  std::vector<double> cap(static_cast<std::size_t>(S), 1.0);
  if (!req.capacities.empty()) {
    for (int s = 0; s < S; ++s) {
      DYNMO_CHECK(req.capacities[static_cast<std::size_t>(s)] > 0.0,
                  "stage " << s << " has non-positive capacity");
      cap[static_cast<std::size_t>(s)] =
          req.capacities[static_cast<std::size_t>(s)];
    }
  }

  OracleBoundaries cur{start.boundaries()};
  std::vector<double> loads(static_cast<std::size_t>(S));
  std::vector<double> mems(static_cast<std::size_t>(S));
  // Normalized loads x_s = load_s / c_s: the quantity the weighted
  // protocol equalizes (identical to loads for uniform capacities).
  std::vector<double> norm(static_cast<std::size_t>(S));
  const auto refresh = [&] {
    for (int s = 0; s < S; ++s) {
      const auto is = static_cast<std::size_t>(s);
      loads[is] = cur.stage_load(s, w);
      mems[is] = cur.stage_mem(s, mem);
      norm[is] = loads[is] / cap[is];
    }
  };
  refresh();

  const double total =
      std::accumulate(norm.begin(), norm.end(), 0.0);
  const double gamma = req.gamma > 0.0 ? req.gamma : 1e-3 * total;
  const int max_rounds =
      DiffusionBalancer::lemma2_round_bound(S, total, gamma);

  DiffusionResult res;
  res.phi_history.push_back(pairwise_potential(norm));

  // Two-phase discrete diffusion (first-order scheme on the pipeline path
  // graph).  Phase 1 is the textbook scalar diffusion each stage can run
  // with neighbor-only information: virtual loads x relax by
  //     x_a ← x_a + α(x_{a−1} − x_a) + α(x_{a+1} − x_a),
  // and each edge integrates the signed flow it carried.  Phase 2 realizes
  // the accumulated flows with whole-layer moves: an edge ships boundary
  // layers in the flow direction while that brings the shipped amount
  // closer to the target flow (standard flow rounding).  Layer moves are
  // therefore allowed to *transiently* unbalance a receiving stage — this
  // is what lets load cascade through intermediate stages and makes the
  // scheme converge where naive gap-greedy neighbor exchange stalls.
  constexpr double kAlpha = 0.5;  // optimal FOS weight for a path graph
  std::vector<double> virt = norm;
  std::vector<double> edge_flow(static_cast<std::size_t>(std::max(0, S - 1)),
                                0.0);

  const auto realize_flows = [&]() -> int {
    int moves = 0;
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (int a = 0; a + 1 < S; ++a) {
        const auto ia = static_cast<std::size_t>(a);
        // Rightward flow still owed across edge (a, a+1).
        const double owed = edge_flow[ia];
        if (owed > 0.0 && cur.b[ia + 1] > cur.b[ia]) {
          const std::size_t layer = cur.b[ia + 1] - 1;
          const double lw = w[layer];
          const double lm = mem.empty() ? 0.0 : mem[layer];
          const bool closer = std::abs(owed - lw) < owed - 1e-15;
          const bool mem_ok = req.mem_capacity <= 0.0 ||
                              mems[ia + 1] + lm <= req.mem_capacity;
          if (closer && mem_ok) {
            --cur.b[ia + 1];
            loads[ia] -= lw;
            loads[ia + 1] += lw;
            norm[ia] = loads[ia] / cap[ia];
            norm[ia + 1] = loads[ia + 1] / cap[ia + 1];
            mems[ia] -= lm;
            mems[ia + 1] += lm;
            edge_flow[ia] -= lw;
            ++moves;
            progressed = true;
          }
        } else if (owed < 0.0 && cur.b[ia + 2] > cur.b[ia + 1]) {
          const std::size_t layer = cur.b[ia + 1];
          const double lw = w[layer];
          const double lm = mem.empty() ? 0.0 : mem[layer];
          const bool closer = std::abs(owed + lw) < -owed - 1e-15;
          const bool mem_ok = req.mem_capacity <= 0.0 ||
                              mems[ia] + lm <= req.mem_capacity;
          if (closer && mem_ok) {
            ++cur.b[ia + 1];
            loads[ia] += lw;
            loads[ia + 1] -= lw;
            norm[ia] = loads[ia] / cap[ia];
            norm[ia + 1] = loads[ia + 1] / cap[ia + 1];
            mems[ia] += lm;
            mems[ia + 1] -= lm;
            edge_flow[ia] += lw;
            ++moves;
            progressed = true;
          }
        }
      }
    }
    return moves;
  };

  // Track the best placement seen: flow realization may transiently pass
  // through worse states (that is what lets it escape local optima), so
  // the returned map is the round with the lowest bottleneck, ties broken
  // by phi.
  std::vector<std::size_t> best_b = cur.b;
  double best_bottleneck = *std::max_element(norm.begin(), norm.end());
  double best_phi = res.phi_history.front();
  const auto consider_best = [&] {
    const double bn = *std::max_element(norm.begin(), norm.end());
    const double phi = pairwise_potential(norm);
    if (bn < best_bottleneck - 1e-15 ||
        (bn <= best_bottleneck + 1e-15 && phi < best_phi)) {
      best_b = cur.b;
      best_bottleneck = bn;
      best_phi = phi;
    }
  };

  int stagnant = 0;
  for (int r = 0; r < max_rounds; ++r) {
    // Phase 1: one weighted diffusion sweep on the normalized loads; the
    // load carried over edge (a,a+1) is the normalized flow times the
    // edge conductance min(c_a, c_{a+1}) (stable since path degree ≤ 2).
    std::vector<double> next = virt;
    for (int a = 0; a + 1 < S; ++a) {
      const auto ia = static_cast<std::size_t>(a);
      const double c_edge = std::min(cap[ia], cap[ia + 1]);
      const double f = kAlpha * c_edge * (virt[ia] - virt[ia + 1]);
      next[ia] -= f / cap[ia];
      next[ia + 1] += f / cap[ia + 1];
      edge_flow[ia] += f;
    }
    virt = std::move(next);

    // Phase 2: realize what the accumulated flows allow.
    const int moved = realize_flows();
    res.layer_moves += moved;
    ++res.rounds;
    consider_best();
    // History records the best-so-far potential: the protocol may pass
    // through transiently worse states, but the achievable balance (what
    // Lemma 2 bounds) improves monotonically.
    res.phi_history.push_back(
        std::min(res.phi_history.back(), pairwise_potential(norm)));
    if (res.phi_history.back() <= gamma) {
      res.converged = true;
      break;
    }
    stagnant = (moved == 0) ? stagnant + 1 : 0;
    // The scalar diffusion mixes in O(S log S) sweeps; once the virtual
    // loads are flat and several realization passes moved nothing, layer
    // granularity is the only residual.
    if (stagnant > 2 * S + 4) break;
  }

  res.map = pipeline::StageMap::from_boundaries(std::move(best_b));
  if (!res.converged) {
    // Converged-by-granularity still counts if φ is within one max layer
    // weight of γ per pair (normalized by the smallest capacity, the
    // stage where one layer moves x the most).
    const double max_w = *std::max_element(w.begin(), w.end()) /
                         *std::min_element(cap.begin(), cap.end());
    res.converged = res.phi_history.back() <=
                    gamma + max_w * static_cast<double>(S) *
                                static_cast<double>(S);
  }
  return res;
}

}  // namespace dynmo::testing
