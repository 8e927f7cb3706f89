// Topology-aware stage → rank placement.
//
// A pipeline's traffic is dominated by activations flowing between
// *adjacent* stages, so a placement is scored by the summed p2p time of
// its stage boundaries for a reference activation payload.  The greedy
// topology-aware placement keeps consecutive stages on the fastest links
// (NVLink before rails before Ethernet) and starts on the highest-
// throughput node.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "cluster/topology.hpp"

namespace dynmo::cluster {

/// Reference per-boundary activation payload (micro-batch × seq × hidden
/// × 2 bytes at GPT-medium scale).
inline constexpr std::size_t kDefaultActivationBytes = 16u << 20;

struct Placement {
  std::vector<int> stage_to_rank;
  /// Summed boundary p2p time for the activation payload the placement
  /// was scored with.
  double boundary_time_s = 0.0;
};

/// Σ over adjacent stage pairs of topo.p2p_time(rank_s, rank_{s+1}, bytes).
double placement_cost_s(const Topology& topo,
                        std::span<const int> stage_to_rank,
                        std::size_t activation_bytes = kDefaultActivationBytes);

/// Greedy: start on the highest-aggregate-throughput node, then repeatedly
/// pick the unused rank with the cheapest link from the previous stage
/// (ties broken toward faster GPUs).  Reduces to linear fill on
/// homogeneous hierarchies; on heterogeneous or irregular graphs it
/// routes the pipeline along the fast edges.
Placement place_topology_aware(
    const Topology& topo, int num_stages,
    std::size_t activation_bytes = kDefaultActivationBytes);

// --------------------------------------------------------------- DP×PP grid
// Hybrid data + pipeline parallelism places a *grid* of ranks: `dp`
// replicas, each running the same `pp`-stage pipeline.  Two traffic
// patterns compete for the NVLink clique — the gradient allreduce between
// a stage's DP peers, and the activation flow between a replica's adjacent
// stages — and a node can only hold one of them, so the orientation is a
// real deployment decision:
//
//   DpInner — a stage's DP peers sit next to each other (packed within a
//             node while they fit): gradient allreduces ride NVLink,
//             pipeline boundaries cross the fabric.
//   PpInner — a replica's pipeline is packed within a node: activations
//             ride NVLink, the gradient allreduce crosses the fabric.

enum class GridOrientation { DpInner, PpInner };

const char* to_string(GridOrientation o);

struct GridPlacement {
  int data_parallel = 0;
  int num_stages = 0;
  /// (replica d, stage s) → global rank at [d * num_stages + s]; each
  /// replica's pipeline view is a contiguous slice.
  std::vector<int> grid_to_rank;
  /// Summed boundary p2p time over every replica's pipeline for the
  /// activation payload the placement was scored with.
  double boundary_time_s = 0.0;
};

/// Greedy topology-aware grid placement: walk the same fast-link chain
/// place_topology_aware builds for dp*pp ranks, then hand chain positions
/// out in the orientation's traversal order — DpInner visits a stage's DP
/// peers consecutively (so they share the chain's fast local links),
/// PpInner visits a replica's stages consecutively.
GridPlacement place_grid(const Topology& topo, int data_parallel,
                         int num_stages, GridOrientation orientation,
                         std::size_t activation_bytes = kDefaultActivationBytes);

}  // namespace dynmo::cluster
