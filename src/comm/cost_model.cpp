#include "comm/cost_model.hpp"

#include <algorithm>

namespace dynmo::comm {

int RankGroup::total_ranks() const {
  int n = 0;
  for (int m : node_sizes) n += m;
  return n;
}

int RankGroup::max_node_size() const {
  int m = 0;
  for (int s : node_sizes) m = std::max(m, s);
  return m;
}

int RankGroup::min_node_size() const {
  if (node_sizes.empty()) return 0;
  int m = node_sizes.front();
  for (int s : node_sizes) m = std::min(m, s);
  return m;
}

CollectiveBytesSplit allreduce_bytes(const RankGroup& g, std::size_t bytes) {
  CollectiveBytesSplit split;
  const int n = g.total_ranks();
  if (n <= 1) return split;
  const double b = static_cast<double>(bytes);
  for (int m : g.node_sizes) {
    if (m > 1) split.intra_node += 2.0 * static_cast<double>(m - 1) * b;
  }
  const int k = g.num_nodes();
  if (k > 1) {
    const int m_min = std::max(1, g.min_node_size());
    split.inter_node =
        2.0 * static_cast<double>(k - 1) * b / static_cast<double>(m_min);
  }
  return split;
}

double CostModel::allreduce_time(const RankGroup& g, std::size_t bytes) const {
  const int n = g.total_ranks();
  if (n <= 1) return 0.0;
  const double b = static_cast<double>(bytes);
  if (g.num_nodes() <= 1) return ring_allreduce(g.intra, n, b);
  double t = 0.0;
  // Phase 1+3: reduce-scatter then allgather inside each node — together
  // exactly one intra-node ring allreduce, gated by the largest node.
  const int m_max = g.max_node_size();
  if (m_max > 1) t += ring_allreduce(g.intra, m_max, b);
  // Phase 2: ring allreduce of the per-node shards across the node leaders.
  // The leader of the smallest node carries the largest shard.
  const int m_min = std::max(1, g.min_node_size());
  t += ring_allreduce(g.inter, g.num_nodes(),
                      b / static_cast<double>(m_min));
  return t;
}

}  // namespace dynmo::comm
