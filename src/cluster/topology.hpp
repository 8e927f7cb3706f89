// Hierarchical cluster topology: nodes of GPUs joined by typed links.
//
// The flat comm::CostModel charges every cross-node transfer the same
// InfiniBand tariff; real clusters are a *graph* — NVLink cliques inside
// each node, rail-optimized InfiniBand (or plain Ethernet) between nodes,
// PCIe where a GPU reaches a NIC through the host.  Topology captures that
// graph declaratively: add nodes (each a set of hw::GpuSpec with an
// intra-node link), add inter-node links, then ask for the shortest-path
// effective bandwidth/latency between any two global ranks.  The factory
// presets mirror common testbeds; make_cost_model() snapshots the
// all-pairs effective links into a comm::CostModel so every existing
// consumer (MigrationPlan, Rebalancer, TrainingSession) prices transfers
// by the actual link they would cross.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "comm/cost_model.hpp"
#include "hw/gpu_spec.hpp"

namespace dynmo::cluster {

/// Physical interconnect class of one edge in the cluster graph — the
/// same taxonomy comm::CostModel prices by, aliased so the two layers
/// cannot drift apart.
using LinkType = comm::LinkTier;

const char* to_string(LinkType t);

struct LinkSpec {
  LinkType type = LinkType::Ethernet;
  double bandwidth_bytes_s = 0.0;  ///< effective unidirectional bandwidth
  double latency_s = 0.0;          ///< one-way message latency

  comm::LinkParams params() const { return {latency_s, bandwidth_bytes_s}; }
};

/// Datasheet-flavored defaults per link class (effective, not peak).
LinkSpec default_link(LinkType t);

struct NodeDesc {
  std::vector<hw::GpuSpec> gpus;
  /// Link joining every GPU pair inside the node (NVSwitch-style clique).
  LinkSpec intra = default_link(LinkType::NvLink);
};

/// A route between two ranks: the rank sequence, the bottleneck bandwidth,
/// and the summed per-hop latency.
struct PathInfo {
  std::vector<int> hops;             ///< rank sequence incl. both endpoints
  double bandwidth_bytes_s = 0.0;    ///< min over traversed links
  double latency_s = 0.0;            ///< sum over traversed links

  bool reachable() const { return !hops.empty(); }
  /// Cut-through transfer model: pay every hop's latency, stream the
  /// payload at the bottleneck bandwidth.
  double time_s(std::size_t bytes) const {
    return latency_s + static_cast<double>(bytes) / bandwidth_bytes_s;
  }
};

class Topology {
 public:
  Topology() = default;

  // ---------------------------------------------------------- factories
  /// n_nodes identical nodes, intra-node clique + rail-optimized inter-node
  /// links (local rank i of every node joined to local rank i of every
  /// other node — transfers between different rails hop over the clique).
  static Topology make_homogeneous(int n_nodes, int gpus_per_node,
                                   hw::GpuSpec gpu, LinkSpec intra,
                                   LinkSpec inter);
  /// DGX-H100 pods: 8x H100-SXM5, NVLink4 clique, NDR InfiniBand rails.
  static Topology make_dgx_h100(int n_nodes);
  /// Arbitrary node mix joined by `inter` rails (rails span the smallest
  /// node; every node's remaining GPUs reach other nodes through their
  /// local clique).
  static Topology make_hetero(std::vector<NodeDesc> nodes, LinkSpec inter);

  // ----------------------------------------------------------- building
  /// Append a node; its GPUs get the next contiguous global ranks and the
  /// intra-node clique links are added.  Returns the node index.
  int add_node(NodeDesc node);
  /// Add an undirected typed link between two global ranks.
  void add_link(int rank_a, int rank_b, LinkSpec link);

  // ------------------------------------------------------ introspection
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int num_ranks() const { return static_cast<int>(rank_node_.size()); }
  int node_of(int rank) const;
  int local_rank(int rank) const;
  int node_size(int node) const;
  int first_rank(int node) const;
  bool same_node(int rank_a, int rank_b) const {
    return node_of(rank_a) == node_of(rank_b);
  }
  const NodeDesc& node(int n) const;
  const hw::GpuSpec& gpu(int rank) const;
  /// Relative compute throughput of a rank (achievable GEMM FLOP/s);
  /// the capacity weight heterogeneous balancing normalizes by.
  double relative_speed(int rank) const;

  // ------------------------------------------------------------ queries
  /// Best route under store-and-forward Dijkstra for a reference-sized
  /// message (64 MiB — a typical transformer layer's migration payload),
  /// reported with the cut-through bandwidth/latency of PathInfo.
  PathInfo best_path(int rank_a, int rank_b) const;
  /// All best routes from one source (one Dijkstra instead of R); entry
  /// [rank_a] is the trivial self-path.
  std::vector<PathInfo> best_paths_from(int rank_a) const;
  double p2p_time(int rank_a, int rank_b, std::size_t bytes) const;

  // ----------------------------------------------------------- adapters
  /// CostModel whose p2p path prices every rank pair by this topology's
  /// shortest-path effective link and whose node membership (tier(),
  /// group(), hierarchical collectives) is this topology's — the
  /// `gpus_per_node` fallback in `base` is never consulted.  All-pairs
  /// links and the rank→node table are snapshotted, so the CostModel stays
  /// valid after the Topology dies.  `base` supplies the tier parameters.
  comm::CostModel make_cost_model(comm::CostModelConfig base = {}) const;

  std::string to_string() const;

 private:
  struct Edge {
    int peer;
    LinkSpec link;
  };

  PathInfo path_from_chain(int rank_a, int rank_b,
                           std::span<const int> prev) const;

  int rank_count_ = 0;
  std::vector<NodeDesc> nodes_;
  std::vector<int> rank_node_;                ///< global rank → node index
  std::vector<int> node_first_rank_;          ///< node index → first rank
  std::vector<std::vector<Edge>> adjacency_;  ///< global rank → edges
};

}  // namespace dynmo::cluster
