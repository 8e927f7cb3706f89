// Offline trace replay: feed a recorded per-layer load history back
// through any balancer configuration (paper-independent observability;
// docs/TELEMETRY.md "Replay").
//
// A telemetry trace's stage_loads table records, for every simulated
// iteration, the exact per-layer fwd+bwd seconds and resident bytes the
// session's balancers consumed.  replay() re-runs the profile → decide →
// migrate loop over that history with an arbitrary RebalanceConfig:
//
//   * the *same* configuration (algorithm, payoff window, noise seed)
//     reproduces the original run's per-iteration bottleneck sequence
//     bit-for-bit — the determinism contract of docs/RUNTIME.md extended
//     to recorded traces, and the round-trip test in
//     tests/test_telemetry.cpp enforces it;
//   * a *different* configuration answers "what would Diffusion /
//     HierarchicalDiffusion / a longer payoff window have done on this
//     exact production load history" — any captured trace becomes a
//     reproducible benchmark scenario (examples/trace_replay.cpp).
//
// Replay covers the balancer path only: a fixed worker count, no re-pack
// or elastic transitions (their restarts change the stage count
// mid-trace; replaying such a trace replays the load history onto the
// initial worker count).
#pragma once

#include <cstdint>
#include <vector>

#include "balance/rebalancer.hpp"
#include "pipeline/stage_map.hpp"

namespace dynmo::balance {

/// A recorded load history: one frame per simulated iteration, in trace
/// order.  telemetry::TraceReader::replayed_loads() builds this from a
/// trace directory; synthetic histories can be assembled directly.
struct ReplayedLoads {
  struct Frame {
    std::int64_t iter = 0;
    std::vector<double> layer_time_s;      ///< per-layer fwd+bwd seconds
    std::vector<double> layer_memory_bytes;  ///< per-layer resident bytes
  };
  std::vector<Frame> frames;
  /// Stage count of the recording (the initial pipeline width).
  int num_stages = 0;

  std::size_t num_layers() const {
    return frames.empty() ? 0 : frames.front().layer_time_s.size();
  }
};

struct ReplayConfig {
  /// Full balancer configuration — algorithm, hysteresis, payoff window,
  /// placement/capacities, and (for HierarchicalDiffusion) the injected
  /// decider, exactly as runtime::TrainingSession resolves them.
  RebalanceConfig rebalance{};
  /// Rebalance points fire when frame.iter % interval == 0 (matching the
  /// session); <= 0 never rebalances (static-map replay).
  std::int64_t rebalance_interval = 1;
  /// Per-layer parameter counts for BalanceBy::Param; empty → zeros.
  std::vector<double> params{};
  /// Seed of the session's profiling measurement noise, which the replay
  /// re-applies so the balancers see byte-identical profiles.  The session
  /// derives its noise stream from SessionConfig::seed the same way.
  std::uint64_t seed = 0x5eed;
};

/// SessionResult's balancer-side ledger, reproduced offline.
struct ReplayResult {
  /// Per-frame bottleneck: max over stages of the hosted layers' seconds,
  /// under the map in effect *after* any rebalance at that frame — the
  /// exact quantity the telemetry iterations table records.
  std::vector<double> bottleneck_s;
  double total_bottleneck_s = 0.0;
  int rebalance_count = 0;
  int maps_accepted = 0;
  int maps_rejected_bottleneck = 0;
  int maps_rejected_payoff = 0;
  double migration_bytes = 0.0;
  double migration_bytes_avoided = 0.0;
  OverheadBreakdown overhead;
  pipeline::StageMap final_map;
};

/// Re-run the balancing loop over a recorded history.  `net` prices
/// migration costs (pass the deployment's cost model to replay placement-
/// priced payoff decisions, or a flat CostModel otherwise).
ReplayResult replay(const ReplayedLoads& loads, const ReplayConfig& cfg,
                    const comm::CostModel& net);

}  // namespace dynmo::balance
