#include "cluster/topology.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <queue>
#include <sstream>

#include "core/error.hpp"
#include "core/units.hpp"

namespace dynmo::cluster {

namespace {

/// Reference payload for path selection: a typical transformer layer's
/// migration state.  Path choice is insensitive to the exact value — it
/// only breaks ties between latency-heavy and bandwidth-heavy routes.
constexpr std::size_t kRefBytes = static_cast<std::size_t>(64.0 * MiB);

}  // namespace

const char* to_string(LinkType t) {
  switch (t) {
    case LinkType::NvLink: return "nvlink";
    case LinkType::Pcie: return "pcie";
    case LinkType::InfiniBand: return "infiniband";
    case LinkType::Ethernet: return "ethernet";
  }
  return "?";
}

LinkSpec default_link(LinkType t) {
  switch (t) {
    // NVLink4 NVSwitch clique: ~450 GB/s effective unidirectional per pair.
    case LinkType::NvLink: return {t, 450e9, 2e-6};
    // PCIe Gen5 x16 through the host: ~55 GB/s, extra hop latency.
    case LinkType::Pcie: return {t, 55e9, 4e-6};
    // NDR200-class RDMA rail: ~25 GB/s effective per GPU pair.
    case LinkType::InfiniBand: return {t, 25e9, 5e-6};
    // 100GbE TCP: ~12.5 GB/s line rate, kernel-stack latency.
    case LinkType::Ethernet: return {t, 12.5e9, 30e-6};
  }
  return {t, 12.5e9, 30e-6};
}

int Topology::add_node(NodeDesc node) {
  DYNMO_CHECK(!node.gpus.empty(), "a node needs at least one GPU");
  DYNMO_CHECK(node.intra.bandwidth_bytes_s > 0.0,
              "intra-node link needs positive bandwidth");
  const int node_idx = num_nodes();
  const int first = rank_count_;
  const int count = static_cast<int>(node.gpus.size());
  node_first_rank_.push_back(first);
  for (int i = 0; i < count; ++i) rank_node_.push_back(node_idx);
  rank_count_ += count;
  adjacency_.resize(static_cast<std::size_t>(rank_count_));
  for (int a = first; a < first + count; ++a) {
    for (int b = a + 1; b < first + count; ++b) {
      add_link(a, b, node.intra);
    }
  }
  nodes_.push_back(std::move(node));
  return node_idx;
}

void Topology::add_link(int rank_a, int rank_b, LinkSpec link) {
  DYNMO_CHECK(rank_a >= 0 && rank_a < num_ranks(), "bad rank " << rank_a);
  DYNMO_CHECK(rank_b >= 0 && rank_b < num_ranks(), "bad rank " << rank_b);
  DYNMO_CHECK(rank_a != rank_b, "self-link on rank " << rank_a);
  DYNMO_CHECK(link.bandwidth_bytes_s > 0.0, "link needs positive bandwidth");
  adjacency_[static_cast<std::size_t>(rank_a)].push_back({rank_b, link});
  adjacency_[static_cast<std::size_t>(rank_b)].push_back({rank_a, link});
}

int Topology::node_of(int rank) const {
  DYNMO_CHECK(rank >= 0 && rank < num_ranks(), "bad rank " << rank);
  return rank_node_[static_cast<std::size_t>(rank)];
}

int Topology::local_rank(int rank) const {
  return rank - first_rank(node_of(rank));
}

int Topology::node_size(int node) const {
  DYNMO_CHECK(node >= 0 && node < num_nodes(), "bad node " << node);
  return static_cast<int>(nodes_[static_cast<std::size_t>(node)].gpus.size());
}

int Topology::first_rank(int node) const {
  DYNMO_CHECK(node >= 0 && node < num_nodes(), "bad node " << node);
  return node_first_rank_[static_cast<std::size_t>(node)];
}

const NodeDesc& Topology::node(int n) const {
  DYNMO_CHECK(n >= 0 && n < num_nodes(), "bad node " << n);
  return nodes_[static_cast<std::size_t>(n)];
}

const hw::GpuSpec& Topology::gpu(int rank) const {
  const int n = node_of(rank);
  return nodes_[static_cast<std::size_t>(n)]
      .gpus[static_cast<std::size_t>(local_rank(rank))];
}

double Topology::relative_speed(int rank) const {
  const hw::GpuSpec& g = gpu(rank);
  return g.peak_flops_bf16 * g.gemm_efficiency;
}

PathInfo Topology::path_from_chain(int rank_a, int rank_b,
                                   std::span<const int> prev) const {
  PathInfo info;
  if (rank_a == rank_b) {
    info.hops = {rank_a};
    info.bandwidth_bytes_s = std::numeric_limits<double>::infinity();
    info.latency_s = 0.0;
    return info;
  }
  if (prev[static_cast<std::size_t>(rank_b)] < 0) return info;  // unreachable
  for (int v = rank_b; v != -1; v = prev[static_cast<std::size_t>(v)]) {
    info.hops.push_back(v);
    if (v == rank_a) break;
  }
  std::reverse(info.hops.begin(), info.hops.end());
  info.bandwidth_bytes_s = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i + 1 < info.hops.size(); ++i) {
    const int u = info.hops[i];
    const int v = info.hops[i + 1];
    // The realized hop is the best parallel edge between u and v.
    double best_time = std::numeric_limits<double>::infinity();
    const LinkSpec* best = nullptr;
    for (const Edge& e : adjacency_[static_cast<std::size_t>(u)]) {
      if (e.peer != v) continue;
      const double t = e.link.latency_s +
                       static_cast<double>(kRefBytes) /
                           e.link.bandwidth_bytes_s;
      if (t < best_time) {
        best_time = t;
        best = &e.link;
      }
    }
    info.bandwidth_bytes_s =
        std::min(info.bandwidth_bytes_s, best->bandwidth_bytes_s);
    info.latency_s += best->latency_s;
  }
  return info;
}

std::vector<PathInfo> Topology::best_paths_from(int rank_a) const {
  DYNMO_CHECK(rank_a >= 0 && rank_a < num_ranks(), "bad rank " << rank_a);
  // Dijkstra on per-hop store-and-forward time of the reference payload;
  // this is additive, unlike the cut-through metric PathInfo reports.
  const auto R = static_cast<std::size_t>(num_ranks());
  std::vector<double> dist(R, std::numeric_limits<double>::infinity());
  std::vector<int> prev(R, -1);
  using Item = std::pair<double, int>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[static_cast<std::size_t>(rank_a)] = 0.0;
  heap.push({0.0, rank_a});
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[static_cast<std::size_t>(u)]) continue;
    for (const Edge& e : adjacency_[static_cast<std::size_t>(u)]) {
      const double hop = e.link.latency_s +
                         static_cast<double>(kRefBytes) /
                             e.link.bandwidth_bytes_s;
      const double nd = d + hop;
      if (nd < dist[static_cast<std::size_t>(e.peer)]) {
        dist[static_cast<std::size_t>(e.peer)] = nd;
        prev[static_cast<std::size_t>(e.peer)] = u;
        heap.push({nd, e.peer});
      }
    }
  }
  std::vector<PathInfo> paths;
  paths.reserve(R);
  for (int b = 0; b < num_ranks(); ++b) {
    paths.push_back(path_from_chain(rank_a, b, prev));
  }
  return paths;
}

PathInfo Topology::best_path(int rank_a, int rank_b) const {
  DYNMO_CHECK(rank_b >= 0 && rank_b < num_ranks(), "bad rank " << rank_b);
  return best_paths_from(rank_a)[static_cast<std::size_t>(rank_b)];
}

double Topology::p2p_time(int rank_a, int rank_b, std::size_t bytes) const {
  if (rank_a == rank_b) return 0.0;
  const PathInfo p = best_path(rank_a, rank_b);
  DYNMO_CHECK(p.reachable(),
              "ranks " << rank_a << " and " << rank_b << " are disconnected");
  return p.time_s(bytes);
}

comm::CostModel Topology::make_cost_model(comm::CostModelConfig base) const {
  const int R = num_ranks();
  comm::CostModel model(base);
  if (R == 0) return model;
  // This topology is the single source of node-membership truth: tier(),
  // group(), and hierarchical collectives ask the resolver, never the
  // uniform `gpus_per_node` rule (which silently disagrees the moment a
  // preset's node size differs from the config's).
  auto membership = std::make_shared<std::vector<int>>(rank_node_);
  model.set_node_resolver([membership](int rank) -> int {
    DYNMO_CHECK(rank >= 0 &&
                    rank < static_cast<int>(membership->size()),
                "rank " << rank << " outside the topology's "
                        << membership->size() << " ranks");
    return (*membership)[static_cast<std::size_t>(rank)];
  });
  // Snapshot all-pairs effective links so the resolver owns its data and
  // the CostModel outlives this Topology.
  auto table = std::make_shared<std::vector<comm::LinkParams>>(
      static_cast<std::size_t>(R) * static_cast<std::size_t>(R),
      comm::LinkParams{0.0, std::numeric_limits<double>::infinity()});
  for (int a = 0; a < R; ++a) {
    const auto paths = best_paths_from(a);
    for (int b = a + 1; b < R; ++b) {
      const PathInfo& p = paths[static_cast<std::size_t>(b)];
      DYNMO_CHECK(p.reachable(),
                  "ranks " << a << " and " << b << " are disconnected");
      const comm::LinkParams lp{p.latency_s, p.bandwidth_bytes_s};
      (*table)[static_cast<std::size_t>(a * R + b)] = lp;
      (*table)[static_cast<std::size_t>(b * R + a)] = lp;
    }
  }
  model.set_link_resolver(
      [table, R](int a, int b) -> comm::LinkParams {
        DYNMO_CHECK(a >= 0 && a < R && b >= 0 && b < R,
                    "rank pair (" << a << "," << b
                                  << ") outside the topology's " << R
                                  << " ranks");
        return (*table)[static_cast<std::size_t>(a * R + b)];
      });
  return model;
}

std::string Topology::to_string() const {
  std::ostringstream os;
  os << num_nodes() << " nodes / " << num_ranks() << " ranks:";
  for (int n = 0; n < num_nodes(); ++n) {
    const NodeDesc& nd = nodes_[static_cast<std::size_t>(n)];
    os << " [" << nd.gpus.size() << "x " << nd.gpus.front().name << " via "
       << cluster::to_string(nd.intra.type) << "]";
  }
  return os.str();
}

Topology Topology::make_homogeneous(int n_nodes, int gpus_per_node,
                                    hw::GpuSpec gpu, LinkSpec intra,
                                    LinkSpec inter) {
  DYNMO_CHECK(n_nodes > 0, "need at least one node");
  DYNMO_CHECK(gpus_per_node > 0, "need at least one GPU per node");
  Topology topo;
  for (int n = 0; n < n_nodes; ++n) {
    NodeDesc node;
    node.gpus.assign(static_cast<std::size_t>(gpus_per_node), gpu);
    node.intra = intra;
    topo.add_node(std::move(node));
  }
  // Rail-optimized fabric: local rank i of every node pairs with local
  // rank i of every other node.  Off-rail transfers hop over the clique.
  for (int a = 0; a < n_nodes; ++a) {
    for (int b = a + 1; b < n_nodes; ++b) {
      for (int i = 0; i < gpus_per_node; ++i) {
        topo.add_link(topo.first_rank(a) + i, topo.first_rank(b) + i, inter);
      }
    }
  }
  return topo;
}

Topology Topology::make_dgx_h100(int n_nodes) {
  LinkSpec intra = default_link(LinkType::NvLink);
  LinkSpec inter = default_link(LinkType::InfiniBand);
  return make_homogeneous(n_nodes, 8, hw::GpuSpec::h100_sxm5(), intra, inter);
}

Topology Topology::make_hetero(std::vector<NodeDesc> nodes, LinkSpec inter) {
  DYNMO_CHECK(!nodes.empty(), "need at least one node");
  Topology topo;
  int rails = std::numeric_limits<int>::max();
  for (auto& nd : nodes) {
    rails = std::min(rails, static_cast<int>(nd.gpus.size()));
    topo.add_node(std::move(nd));
  }
  const int N = topo.num_nodes();
  for (int a = 0; a < N; ++a) {
    for (int b = a + 1; b < N; ++b) {
      for (int i = 0; i < rails; ++i) {
        topo.add_link(topo.first_rank(a) + i, topo.first_rank(b) + i, inter);
      }
    }
  }
  return topo;
}

}  // namespace dynmo::cluster
