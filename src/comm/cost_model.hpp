// Alpha-beta communication cost model.
//
// The simulator charges communication time with the standard postal model
//   t(bytes) = alpha + bytes / beta
// with per-link-tier parameters.  Tiers mirror the paper's testbed: NVLink
// (NVSwitch, intra-node), InfiniBand NDR200 (inter-node), PCIe Gen5 (host
// staging).  Collective costs use the textbook formulas for the algorithms
// the Communicator implements (binomial tree, ring, direct exchange).
//
// Two pluggable resolvers let a cluster::Topology / cluster::Deployment own
// the cluster facts instead of the flat `gpus_per_node` rule:
//   * LinkResolver — per-rank-pair effective link for point-to-point
//     transfers (shortest path over the real graph).
//   * NodeResolver — rank → node membership, so tier() agrees with the
//     topology even when node sizes are non-uniform or differ from
//     `CostModelConfig::gpus_per_node`.
// The RankGroup overload of allreduce_time() computes the *hierarchical*
// cost (reduce-scatter inside each node, ring across node leaders) and
// reduces exactly to the flat formula when the group spans a single node.
#pragma once

#include <cstddef>
#include <cmath>
#include <functional>
#include <utility>
#include <vector>

namespace dynmo::comm {

/// Link tier between two workers.
enum class LinkTier { NvLink, InfiniBand, Pcie, Ethernet };

struct LinkParams {
  double alpha_s;        ///< latency, seconds
  double beta_bytes_s;   ///< bandwidth, bytes/second
};

/// Reference payload for ranking links worst-first (a typical transformer
/// layer's 64 MiB migration state — the same payload cluster::Topology
/// selects paths with); only breaks ties between latency-heavy and
/// bandwidth-heavy links.
inline constexpr std::size_t kLinkRefBytes = 64u << 20;

inline double link_ref_time(const LinkParams& lp) {
  return lp.alpha_s + static_cast<double>(kLinkRefBytes) / lp.beta_bytes_s;
}

struct CostModelConfig {
  // H100 SXM5 node: NVLink4 x6 ~ 900 GB/s per GPU pair-aggregate; we model
  // the per-transfer effective bandwidth (~450e9 unidirectional realistic).
  LinkParams nvlink{2e-6, 450e9};
  // 4x 200Gbps NDR200 per node = 100 GB/s node-aggregate; per-GPU-pair
  // effective ~25 GB/s with ~5 us latency (RDMA).
  LinkParams infiniband{5e-6, 25e9};
  LinkParams pcie{4e-6, 55e9};
  // 100GbE TCP fallback for commodity clusters: ~12.5 GB/s line rate,
  // tens-of-microseconds latency through the kernel stack.
  LinkParams ethernet{30e-6, 12.5e9};
  /// Uniform-node-size fallback for node membership (paper testbed: 4x H100
  /// per node).  Only consulted when no NodeResolver is installed; a
  /// Topology/Deployment-backed model is the single source of membership
  /// truth and this value is ignored.
  int gpus_per_node = 4;
};

/// Node-grouped membership of a set of ranks, plus the two links the
/// hierarchical collective formulas price by.  Built by
/// cluster::Deployment::group() (the topology's actual worst member links);
/// can also be assembled by hand for what-if costing.
struct RankGroup {
  std::vector<int> node_sizes;  ///< members per distinct node, all >= 1
  LinkParams intra{0.0, 0.0};   ///< link within a node
  LinkParams inter{0.0, 0.0};   ///< link between node leaders

  int num_nodes() const { return static_cast<int>(node_sizes.size()); }
  int total_ranks() const;
  int max_node_size() const;
  int min_node_size() const;
};

struct CollectiveBytesSplit {
  double intra_node = 0.0;
  double inter_node = 0.0;
};

/// Aggregate wire bytes one hierarchical ring allreduce of `bytes` moves,
/// split by node boundary — the byte-accounting companion to
/// CostModel::allreduce_time(RankGroup, bytes): each node's intra ring
/// moves 2(m_i−1)·bytes inside the node, the leader ring moves
/// 2(k−1)·(bytes/m_min) across the fabric.  Degenerates to the flat ring's
/// 2(n−1)·bytes on a single node (all intra) and on all-singleton nodes
/// (all inter).
CollectiveBytesSplit allreduce_bytes(const RankGroup& g, std::size_t bytes);

class CostModel {
 public:
  /// Per-rank-pair link override.  When set, point-to-point transfers are
  /// priced by whatever the resolver returns (e.g. the shortest-path
  /// effective link of a cluster::Topology) instead of the flat two-tier
  /// same-node/cross-node rule.
  using LinkResolver = std::function<LinkParams(int rank_a, int rank_b)>;
  /// Rank → node membership override (non-uniform node sizes).
  using NodeResolver = std::function<int(int rank)>;

  explicit CostModel(CostModelConfig cfg = {}) : cfg_(cfg) {}

  const CostModelConfig& config() const { return cfg_; }

  void set_link_resolver(LinkResolver resolver) {
    resolver_ = std::move(resolver);
  }
  bool has_link_resolver() const { return static_cast<bool>(resolver_); }

  void set_node_resolver(NodeResolver resolver) {
    node_resolver_ = std::move(resolver);
  }
  bool has_node_resolver() const { return static_cast<bool>(node_resolver_); }

  /// Which tier connects two global ranks (same node → NVLink).
  LinkTier tier(int rank_a, int rank_b) const {
    return same_node(rank_a, rank_b) ? LinkTier::NvLink
                                     : LinkTier::InfiniBand;
  }

  int node_of(int rank) const {
    return node_resolver_ ? node_resolver_(rank) : rank / cfg_.gpus_per_node;
  }

  /// Whether two ranks share a node under this model's membership rule —
  /// the bit that splits migration traffic into cheap intra-node moves and
  /// expensive fabric crossings.
  bool same_node(int rank_a, int rank_b) const {
    return node_of(rank_a) == node_of(rank_b);
  }

  /// Effective link between two ranks: resolver if set, tier rule otherwise.
  LinkParams link(int rank_a, int rank_b) const {
    if (resolver_) return resolver_(rank_a, rank_b);
    return params(tier(rank_a, rank_b));
  }

  double p2p_time(int rank_a, int rank_b, std::size_t bytes) const {
    const LinkParams lp = link(rank_a, rank_b);
    return lp.alpha_s + static_cast<double>(bytes) / lp.beta_bytes_s;
  }

  // ------------------------------------------------- flat collectives
  // Uniform-link formulas: every hop is priced at one tier, chosen by the
  // `crosses_nodes` bit.  Kept for synthetic clusters (e.g. pricing a DP
  // ring whose replicas are outside the topology); the RankGroup overload
  // of allreduce_time below is the hierarchical version every Deployment
  // consumer uses.

  /// Ring allreduce over n ranks: 2(n-1)/n * bytes over the slowest link,
  /// plus 2(n-1) latency terms.
  double allreduce_time(int n, std::size_t bytes, bool crosses_nodes) const {
    if (n <= 1) return 0.0;
    return ring_allreduce(params(crosses_nodes ? LinkTier::InfiniBand
                                               : LinkTier::NvLink),
                          n, static_cast<double>(bytes));
  }

  /// Binomial broadcast: ceil(log2 n) * (alpha + bytes/beta).
  double broadcast_time(int n, std::size_t bytes, bool crosses_nodes) const {
    if (n <= 1) return 0.0;
    const LinkParams& lp =
        params(crosses_nodes ? LinkTier::InfiniBand : LinkTier::NvLink);
    const double rounds = std::ceil(std::log2(static_cast<double>(n)));
    return rounds * (lp.alpha_s + static_cast<double>(bytes) / lp.beta_bytes_s);
  }

  /// all_to_all over n ranks, each sending `bytes` to everyone (MoE token
  /// exchange).  Direct exchange: (n-1) messages serialized per NIC.
  double alltoall_time(int n, std::size_t bytes_per_peer,
                       bool crosses_nodes) const {
    if (n <= 1) return 0.0;
    const LinkParams& lp =
        params(crosses_nodes ? LinkTier::InfiniBand : LinkTier::NvLink);
    const double nn = static_cast<double>(n);
    return (nn - 1.0) *
           (lp.alpha_s + static_cast<double>(bytes_per_peer) / lp.beta_bytes_s);
  }

  // ------------------------------------------ hierarchical allreduce
  // Group-aware formula over the real node membership: reduce-scatter +
  // allgather inside each node (NVLink), ring allreduce of the per-node
  // shards across node leaders.  Reduces exactly to the flat intra-node
  // formula when the group spans one node, and to the flat cross-node
  // formula when every node holds a single member.  Non-uniform node sizes
  // are gated by the worst node (largest for the intra phase, smallest
  // shard for the inter phase).
  double allreduce_time(const RankGroup& g, std::size_t bytes) const;

  const LinkParams& params(LinkTier t) const {
    switch (t) {
      case LinkTier::NvLink: return cfg_.nvlink;
      case LinkTier::InfiniBand: return cfg_.infiniband;
      case LinkTier::Pcie: return cfg_.pcie;
      case LinkTier::Ethernet: return cfg_.ethernet;
    }
    return cfg_.pcie;  // unreachable
  }

 private:
  static double ring_allreduce(const LinkParams& lp, int n, double bytes) {
    const double nn = static_cast<double>(n);
    return 2.0 * (nn - 1.0) * lp.alpha_s +
           2.0 * (nn - 1.0) / nn * bytes / lp.beta_bytes_s;
  }

  CostModelConfig cfg_;
  LinkResolver resolver_;
  NodeResolver node_resolver_;
};

}  // namespace dynmo::comm
