// Oracles for balance::PartitionBalancer and the elastic shrink rule built
// on it, on public API only:
//   - exhaustive DPs over every contiguous partition, summing each stage
//     left to right as StageMap::stage_loads does, so the exact search must
//     match them bit for bit;
//   - ElasticController::decide as first written, with the shrink target
//     found by scanning a = min_workers … active−1 for the first worker
//     count whose optimal bottleneck is within tolerance.  decide() must
//     agree with it on every action, target and stall.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "balance/partition.hpp"
#include "pipeline/stage_map.hpp"
#include "repack/repack.hpp"
#include "runtime/elastic.hpp"

namespace dynmo::testing {

constexpr double kNoPartition = std::numeric_limits<double>::infinity();

/// Left-to-right sum of v[begin, end).
inline double range_sum(std::span<const double> v, std::size_t begin,
                        std::size_t end) {
  double s = 0.0;
  for (std::size_t i = begin; i < end; ++i) s += v[i];
  return s;
}

/// The smallest non-negative double c with c * speed >= load, found by
/// bisecting the bit patterns of the non-negative doubles (which order
/// like the values).
inline double min_cap_holding(double load, double speed) {
  std::uint64_t lo = 0;
  std::uint64_t hi = std::bit_cast<std::uint64_t>(kNoPartition);
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (std::bit_cast<double>(mid) * speed >= load) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return std::bit_cast<double>(lo);
}

/// Entry a−1 is the minimum, over all partitions of `w` into a contiguous
/// stages (empty ones allowed), of the largest stage load; a = 1 …
/// max_stages.
inline std::vector<double> brute_force_bottlenecks(std::span<const double> w,
                                                   int max_stages) {
  const std::size_t n = w.size();
  std::vector<std::vector<double>> sum(n + 1, std::vector<double>(n + 1));
  for (std::size_t i = 0; i <= n; ++i) {
    for (std::size_t j = i; j <= n; ++j) sum[i][j] = range_sum(w, i, j);
  }
  // best[i]: optimum for the suffix w[i, n) over the stages placed so far.
  std::vector<double> best(n + 1, kNoPartition);
  best[n] = 0.0;
  std::vector<double> out;
  for (int k = 0; k < max_stages; ++k) {
    std::vector<double> next(n + 1, kNoPartition);
    for (std::size_t i = 0; i <= n; ++i) {
      for (std::size_t j = i; j <= n; ++j) {
        next[i] = std::min(next[i], std::max(sum[i][j], best[j]));
      }
    }
    best = std::move(next);
    out.push_back(best[0]);
  }
  return out;
}

inline double brute_force_bottleneck(std::span<const double> w, int stages) {
  return brute_force_bottlenecks(w, stages).back();
}

/// The cap PartitionBalancer::balance searches for under capacities and a
/// memory cap: stage s of speed caps[s] holds a multi-layer range whose
/// load fits cap * caps[s] and whose memory fits `mem_capacity` (<= 0 →
/// unlimited); a single-layer stage holds its layer whatever its budget
/// (an empty stage always takes its first layer); and the cap is never
/// below the heaviest layer on the fastest stage.  kNoPartition when memory
/// alone needs more than caps.size() stages.
inline double brute_force_capped_cap(std::span<const double> w,
                                     std::span<const double> mem,
                                     double mem_capacity,
                                     std::span<const double> caps) {
  const std::size_t n = w.size();
  const auto stage_cap = [&](std::size_t s, std::size_t i, std::size_t j) {
    if (j - i < 2) return 0.0;
    if (mem_capacity > 0.0 && !mem.empty() &&
        range_sum(mem, i, j) > mem_capacity) {
      return kNoPartition;
    }
    return min_cap_holding(range_sum(w, i, j), caps[s]);
  };
  std::vector<double> best(n + 1, kNoPartition);
  best[n] = 0.0;
  for (std::size_t s = caps.size(); s-- > 0;) {
    std::vector<double> next(n + 1, kNoPartition);
    for (std::size_t i = 0; i <= n; ++i) {
      for (std::size_t j = i; j <= n; ++j) {
        next[i] = std::min(next[i], std::max(stage_cap(s, i, j), best[j]));
      }
    }
    best = std::move(next);
  }
  if (best[0] == kNoPartition) return kNoPartition;
  const double fastest = *std::max_element(caps.begin(), caps.end());
  return std::max(best[0], min_cap_holding(
                               *std::max_element(w.begin(), w.end()),
                               fastest));
}

/// The same cap read off one map: kNoPartition if a multi-layer stage
/// exceeds `mem_capacity`.
inline double map_cap(const pipeline::StageMap& map, std::span<const double> w,
                      std::span<const double> mem, double mem_capacity,
                      std::span<const double> caps) {
  const double fastest = *std::max_element(caps.begin(), caps.end());
  double cap = min_cap_holding(*std::max_element(w.begin(), w.end()), fastest);
  for (int s = 0; s < map.num_stages(); ++s) {
    const std::size_t i = map.stage_begin(s);
    const std::size_t j = map.stage_end(s);
    if (j - i < 2) continue;
    if (mem_capacity > 0.0 && !mem.empty() &&
        range_sum(mem, i, j) > mem_capacity) {
      return kNoPartition;
    }
    cap = std::max(cap, min_cap_holding(range_sum(w, i, j),
                                        caps[static_cast<std::size_t>(s)]));
  }
  return cap;
}

/// ElasticController::decide with the shrink target found by a linear scan
/// over worker counts; everything else as in decide().  `ctl` supplies the
/// restart-stall model, worker bounds and cluster; `cfg` the thresholds it
/// was built with.
inline runtime::ElasticDecision linear_scan_decide(
    const runtime::ElasticController& ctl, const runtime::ElasticConfig& cfg,
    const pipeline::StageMap& map, std::span<const double> layer_time_s,
    std::span<const double> state_bytes, double mem_capacity,
    int active_workers) {
  using balance::PartitionBalancer;
  runtime::ElasticDecision d;
  const auto loads = map.stage_loads(layer_time_s);
  const double bottleneck = *std::max_element(loads.begin(), loads.end());
  if (bottleneck <= 0.0) return d;
  const double window = cfg.payoff_window_iters;

  repack::ContiguousRepackRequest req;
  req.memory_bytes.assign(state_bytes.begin(), state_bytes.end());
  req.mem_capacity = mem_capacity;

  const double ref =
      PartitionBalancer::optimal_bottleneck(layer_time_s, ctl.max_workers());
  int target = active_workers;
  for (int a = ctl.min_workers(); a < active_workers; ++a) {
    if (PartitionBalancer::optimal_bottleneck(layer_time_s, a) <=
        ref * cfg.shrink_tolerance) {
      target = a;
      break;
    }
  }
  if (target < active_workers) {
    req.target_workers = 0;
    const auto mem_min = repack::repack_contiguous(req, active_workers);
    target = mem_min.feasible ? std::max(target, mem_min.active_workers)
                              : active_workers;
  }
  if (target < active_workers) {
    req.target_workers = target;
    const auto packed = repack::repack_contiguous(req, target);
    d.target_workers = target;
    d.stall = ctl.restart_stall(map, packed.map, state_bytes);
    d.restart_stall_s = d.stall.total_s();
    d.projected_gain_s =
        static_cast<double>(active_workers - target) * bottleneck;
    if (window > 0.0 &&
        d.projected_gain_s * window <
            d.restart_stall_s * static_cast<double>(active_workers)) {
      d.rejected_by_payoff = true;
      return d;
    }
    d.action = runtime::ElasticAction::Shrink;
    return d;
  }

  if (active_workers < ctl.max_workers() && ctl.cluster().free_gpus() > 0) {
    const int grown = std::min(ctl.max_workers(),
                               active_workers + ctl.cluster().free_gpus());
    const double gain =
        bottleneck - PartitionBalancer::optimal_bottleneck(layer_time_s, grown);
    if (gain >= cfg.expand_min_gain * bottleneck) {
      balance::PartitionRequest preq;
      preq.weights.assign(layer_time_s.begin(), layer_time_s.end());
      preq.num_stages = grown;
      const auto balanced = PartitionBalancer{}.balance(preq);
      d.target_workers = grown;
      d.projected_gain_s = gain;
      d.stall = ctl.restart_stall(map, balanced.map, state_bytes);
      d.restart_stall_s = d.stall.total_s();
      if (window > 0.0 && gain * window < d.restart_stall_s) {
        d.rejected_by_payoff = true;
        return d;
      }
      d.action = runtime::ElasticAction::Expand;
    }
  }
  return d;
}

}  // namespace dynmo::testing
