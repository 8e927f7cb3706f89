#include "runtime/elastic.hpp"

#include <algorithm>
#include <cmath>

#include "balance/partition.hpp"
#include "core/error.hpp"
#include "core/log.hpp"
#include "repack/repack.hpp"

namespace dynmo::runtime {

/// Reference payload of one communicator-bootstrap exchange (the NCCL
/// unique-id / ring-handshake analogue), priced over the new group's worst
/// inter-node link per binomial step.
constexpr std::size_t kBootstrapBytes = 1u << 20;

const char* to_string(ElasticAction a) {
  switch (a) {
    case ElasticAction::Hold: return "hold";
    case ElasticAction::Shrink: return "shrink";
    case ElasticAction::Expand: return "expand";
  }
  return "?";
}

ElasticController::ElasticController(ElasticConfig cfg, int initial_workers,
                                     BootstrapLinkFn bootstrap_link)
    : cfg_(std::move(cfg)),
      max_workers_(cfg_.max_workers > 0 ? cfg_.max_workers
                                        : initial_workers),
      bootstrap_link_(std::move(bootstrap_link)),
      owned_cluster_(cfg_.cluster == nullptr
                         ? std::optional<repack::MockEckCluster>(
                               std::in_place)
                         : std::nullopt),
      cluster_(cfg_.cluster != nullptr ? cfg_.cluster : &*owned_cluster_),
      job_(cluster_, cfg_.pod, initial_workers) {
  DYNMO_CHECK(initial_workers > 0, "need at least one worker");
  DYNMO_CHECK(max_workers_ >= initial_workers,
              "max_workers " << max_workers_ << " below the initial "
                             << initial_workers << " workers");
  DYNMO_CHECK(cfg_.min_workers >= 1 && cfg_.min_workers <= initial_workers,
              "min_workers " << cfg_.min_workers << " outside [1, "
                             << initial_workers << "]");
  DYNMO_CHECK(cfg_.shrink_tolerance >= 1.0,
              "shrink_tolerance is a slowdown bound, must be >= 1");
  DYNMO_CHECK(static_cast<bool>(bootstrap_link_),
              "elastic controller needs a bootstrap link resolver");
}

RestartStall ElasticController::restart_stall(
    const pipeline::StageMap& before, const pipeline::StageMap& after,
    std::span<const double> state_bytes) const {
  const auto busiest_shard = [&](const pipeline::StageMap& m) {
    const auto shards = m.stage_loads(state_bytes);
    return shards.empty() ? 0.0
                          : *std::max_element(shards.begin(), shards.end());
  };
  // Every worker writes/reads its own shard concurrently; the busiest
  // shard gates each phase (docs/COST_MODEL.md "Restart-stall pricing").
  RestartStall stall;
  stall.alpha_s = cfg_.restart_alpha_s;
  stall.ckpt_write_s = busiest_shard(before) / cfg_.checkpoint_bw;
  stall.ckpt_read_s = busiest_shard(after) / cfg_.checkpoint_bw;
  const int workers = std::max(1, after.num_stages());
  const int steps = static_cast<int>(
      std::ceil(std::log2(static_cast<double>(workers))));
  const comm::LinkParams link = bootstrap_link_(workers);
  stall.bootstrap_s =
      static_cast<double>(steps) *
      (link.alpha_s +
       static_cast<double>(kBootstrapBytes) / link.beta_bytes_s);
  return stall;
}

ElasticDecision ElasticController::decide(
    const pipeline::StageMap& map, std::span<const double> layer_time_s,
    std::span<const double> state_bytes, double mem_capacity,
    int active_workers) {
  DYNMO_CHECK(active_workers >= 1 && active_workers <= max_workers_,
              "active worker count " << active_workers << " outside [1, "
                                     << max_workers_ << "]");
  DYNMO_CHECK(layer_time_s.size() == map.num_layers() &&
                  state_bytes.size() == map.num_layers(),
              "per-layer vectors must match the map's layer count");

  ElasticDecision d;
  const auto loads = map.stage_loads(layer_time_s);
  const double bottleneck =
      loads.empty() ? 0.0 : *std::max_element(loads.begin(), loads.end());
  if (bottleneck <= 0.0) return d;
  const double window = cfg_.payoff_window_iters;

  repack::ContiguousRepackRequest req;
  req.memory_bytes.assign(state_bytes.begin(), state_bytes.end());
  req.mem_capacity = mem_capacity;

  // --- shrink: the ThroughputPreserving rule, memory-clamped -------------
  // The reference is the optimal bottleneck at the *full* worker count on
  // today's loads, so repeated shrinks cannot ratchet the pipeline slower.
  // The optimal bottleneck is non-increasing in the worker count, so the
  // fewest workers within tolerance is one greedy probe at ref·tolerance.
  const double ref =
      balance::PartitionBalancer::optimal_bottleneck(layer_time_s,
                                                     max_workers_);
  int target = std::min(
      active_workers,
      std::max(cfg_.min_workers,
               balance::PartitionBalancer::min_stages(
                   layer_time_s, ref * cfg_.shrink_tolerance)));
  if (target < active_workers) {
    // Clamp to the memory-minimal worker count (target_workers = 0 packs
    // as tight as capacity allows).
    req.target_workers = 0;
    const auto mem_min = repack::repack_contiguous(req, active_workers);
    if (mem_min.feasible) {
      target = std::max(target, mem_min.active_workers);
    } else {
      target = active_workers;  // cannot pack at all
    }
  }
  if (target < active_workers) {
    req.target_workers = target;
    const auto packed = repack::repack_contiguous(req, target);
    DYNMO_CHECK(packed.feasible, "memory-clamped pack must be feasible");
    d.target_workers = target;
    d.stall = restart_stall(map, packed.map, state_bytes);
    d.restart_stall_s = d.stall.total_s();
    // Freed GPU-time per iteration must amortize stalling all current
    // workers for the restart — the re-pack payoff rule with the restart
    // stall in place of the migration wall-clock.
    d.projected_gain_s =
        static_cast<double>(active_workers - target) * bottleneck;
    if (window > 0.0 &&
        d.projected_gain_s * window <
            d.restart_stall_s * static_cast<double>(active_workers)) {
      d.rejected_by_payoff = true;
      return d;
    }
    d.action = ElasticAction::Shrink;
    return d;
  }

  // --- expand: reclaim freed capacity when the gain prices in ------------
  if (active_workers < max_workers_) {
    const int free = cluster_->free_gpus();
    if (free > 0) {
      const int grown = std::min(max_workers_, active_workers + free);
      const double gain =
          bottleneck -
          balance::PartitionBalancer::optimal_bottleneck(layer_time_s, grown);
      if (gain >= cfg_.expand_min_gain * bottleneck) {
        // The post-restart map is the balanced partition at the grown
        // count — exactly what reshard-on-reload produces.
        balance::PartitionRequest preq;
        preq.weights.assign(layer_time_s.begin(), layer_time_s.end());
        preq.num_stages = grown;
        const auto balanced = balance::PartitionBalancer{}.balance(preq);
        d.target_workers = grown;
        d.projected_gain_s = gain;
        d.stall = restart_stall(map, balanced.map, state_bytes);
        d.restart_stall_s = d.stall.total_s();
        // The migration payoff rule verbatim: per-iteration gain times the
        // window must cover the exposed (restart) cost.
        if (window > 0.0 && gain * window < d.restart_stall_s) {
          d.rejected_by_payoff = true;
          return d;
        }
        d.action = ElasticAction::Expand;
        return d;
      }
    }
  }
  return d;
}

bool ElasticController::commit(const ElasticDecision& d) {
  if (d.action == ElasticAction::Hold) return true;
  DYNMO_CHECK(d.target_workers >= cfg_.min_workers &&
                  d.target_workers <= max_workers_,
              "target worker count " << d.target_workers << " outside ["
                                     << cfg_.min_workers << ", "
                                     << max_workers_ << "]");
  const bool ok = job_.resize_gpu_claim(d.target_workers);
  if (!ok) {
    // Conflict: another pending job raced us to the freed capacity (or
    // the PATCH was malformed).  The runtime stays on the current map.
    DYNMO_LOG(Warn) << "elastic " << to_string(d.action) << " to "
                    << d.target_workers << " workers rejected by the "
                    << "control plane";
  }
  return ok;
}

}  // namespace dynmo::runtime
