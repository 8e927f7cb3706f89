#include "balance/migration.hpp"

#include <algorithm>
#include <map>

#include "core/error.hpp"

namespace dynmo::balance {

double MigrationPlan::total_bytes() const {
  double acc = 0.0;
  for (const auto& t : transfers) acc += t.bytes;
  return acc;
}

namespace {

/// Stage s runs on rank stage_to_rank[s]; empty → rank s.
int rank_of(std::span<const int> stage_to_rank, int stage) {
  if (stage_to_rank.empty()) return stage;
  DYNMO_CHECK(stage >= 0 &&
                  static_cast<std::size_t>(stage) < stage_to_rank.size(),
              "transfer touches stage " << stage << " outside the "
                                        << stage_to_rank.size()
                                        << "-stage placement");
  return stage_to_rank[static_cast<std::size_t>(stage)];
}

}  // namespace

// Serialize per endpoint: a rank's migration time is the sum of the p2p
// times of every transfer it participates in; the plan completes when the
// busiest rank does.
double MigrationPlan::estimated_time_s(
    const comm::CostModel& net, std::span<const int> stage_to_rank) const {
  std::map<int, double> rank_time;
  for (const auto& t : transfers) {
    const int src = rank_of(stage_to_rank, t.src_stage);
    const int dst = rank_of(stage_to_rank, t.dst_stage);
    const double s =
        net.p2p_time(src, dst, static_cast<std::size_t>(t.bytes));
    rank_time[src] += s;
    rank_time[dst] += s;
  }
  double worst = 0.0;
  for (const auto& [rank, s] : rank_time) worst = std::max(worst, s);
  return worst;
}

MigrationCost MigrationPlan::exposed_cost(
    const comm::CostModel& net, std::span<const int> stage_to_rank) const {
  MigrationCost cost;
  cost.time_s = estimated_time_s(net, stage_to_rank);
  for (const auto& t : transfers) {
    if (net.same_node(rank_of(stage_to_rank, t.src_stage),
                      rank_of(stage_to_rank, t.dst_stage))) {
      cost.intra_node_bytes += t.bytes;
    } else {
      cost.inter_node_bytes += t.bytes;
    }
  }
  return cost;
}

MigrationPlan plan_migration_full_rescan(const pipeline::StageMap& before,
                                         const pipeline::StageMap& after,
                                         std::span<const double> state_bytes) {
  DYNMO_CHECK(before.num_layers() == after.num_layers(),
              "stage maps cover different layer counts");
  DYNMO_CHECK(state_bytes.size() == before.num_layers(),
              "state_bytes size mismatch");
  MigrationPlan plan;
  for (std::size_t l = 0; l < before.num_layers(); ++l) {
    const int src = before.stage_of(l);
    const int dst = after.stage_of(l);
    if (src != dst) {
      plan.transfers.push_back(LayerTransfer{l, src, dst, state_bytes[l]});
    }
  }
  return plan;
}

MigrationPlan plan_migration(const pipeline::StageMap& before,
                             const pipeline::StageMap& after,
                             std::span<const double> state_bytes) {
  DYNMO_CHECK(before.num_layers() == after.num_layers(),
              "stage maps cover different layer counts");
  DYNMO_CHECK(state_bytes.size() == before.num_layers(),
              "state_bytes size mismatch");
  const auto& bb = before.boundaries();
  const auto& ab = after.boundaries();
  if (bb.size() != ab.size()) {
    // Stage counts differ: the interval argument does not apply, so diff
    // every layer (rare — only synthetic callers compare unequal shapes).
    return plan_migration_full_rescan(before, after, state_bytes);
  }
  // A layer l outside every boundary-difference interval satisfies
  // b_s <= l ⇔ a_s <= l for all s, hence StageMap::stage_of (a pure
  // function of those comparisons) places it identically in both maps.
  // Interval starts and ends are non-decreasing in s (both boundary
  // vectors are sorted), so one forward pass merges overlapping intervals
  // and scans each merged range in ascending layer order — the exact
  // transfer order of the full sweep.
  MigrationPlan plan;
  bool open = false;
  std::size_t lo = 0;
  std::size_t hi = 0;
  const auto flush = [&]() {
    for (std::size_t l = lo; l < hi; ++l) {
      const int src = before.stage_of(l);
      const int dst = after.stage_of(l);
      if (src != dst) {
        plan.transfers.push_back(LayerTransfer{l, src, dst, state_bytes[l]});
      }
    }
  };
  for (std::size_t s = 1; s + 1 < bb.size(); ++s) {
    if (bb[s] == ab[s]) continue;
    const std::size_t a = std::min(bb[s], ab[s]);
    const std::size_t b = std::max(bb[s], ab[s]);
    if (!open) {
      open = true;
      lo = a;
      hi = b;
    } else if (a <= hi) {
      hi = std::max(hi, b);
    } else {
      flush();
      lo = a;
      hi = b;
    }
  }
  if (open) flush();
  return plan;
}

}  // namespace dynmo::balance
