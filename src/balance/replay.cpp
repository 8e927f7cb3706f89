#include "balance/replay.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "core/rng.hpp"

namespace dynmo::balance {

ReplayResult replay(const ReplayedLoads& loads, const ReplayConfig& cfg,
                    const comm::CostModel& net) {
  DYNMO_CHECK(!loads.frames.empty(), "replay needs at least one frame");
  DYNMO_CHECK(loads.num_stages > 0, "replay needs the recorded stage count");
  const std::size_t L = loads.num_layers();
  DYNMO_CHECK(L >= static_cast<std::size_t>(loads.num_stages),
              "fewer layers than stages");
  for (const auto& f : loads.frames) {
    DYNMO_CHECK(f.layer_time_s.size() == L &&
                    f.layer_memory_bytes.size() == L,
                "frame " << f.iter << " layer count differs from the first "
                         << "frame (re-packed trace? replay covers the "
                         << "fixed-width balancer path only)");
  }
  DYNMO_CHECK(cfg.params.empty() || cfg.params.size() == L,
              "params vector covers " << cfg.params.size() << " layers, "
                                      << "trace has " << L);

  // Mirrors runtime::TrainingSession::run(): the DynMo arm starts from the
  // uniform map and derives its noise stream from the same seed tweak, so
  // a same-config replay consumes an identical random sequence.
  pipeline::StageMap map = pipeline::StageMap::uniform(L, loads.num_stages);
  Rng noise_rng(hash_mix(cfg.seed, 0x7e55));
  const Rebalancer rebalancer(cfg.rebalance, net);

  ReplayResult res;
  res.bottleneck_s.reserve(loads.frames.size());
  const std::vector<double> zero_params(L, 0.0);

  for (const auto& frame : loads.frames) {
    if (cfg.rebalance_interval > 0 &&
        frame.iter % cfg.rebalance_interval == 0) {
      LayerProfile profile;
      profile.time_s = frame.layer_time_s;
      profile.memory_bytes = frame.layer_memory_bytes;
      profile.params = cfg.params.empty() ? zero_params : cfg.params;
      add_measurement_noise(profile, noise_rng);

      const auto outcome = rebalancer.rebalance(profile, map);
      map = outcome.map;
      ++res.rebalance_count;
      res.overhead += outcome.overhead;
      switch (outcome.decision) {
        case MapDecision::Accepted:
          if (!outcome.migration.empty()) ++res.maps_accepted;
          res.migration_bytes += outcome.migration.total_bytes();
          break;
        case MapDecision::RejectedBottleneck:
          ++res.maps_rejected_bottleneck;
          res.migration_bytes_avoided += outcome.candidate_bytes;
          break;
        case MapDecision::RejectedPayoff:
          ++res.maps_rejected_payoff;
          res.migration_bytes_avoided += outcome.candidate_bytes;
          break;
      }
    }

    const auto stage_s = map.stage_loads(frame.layer_time_s);
    const double bottleneck =
        *std::max_element(stage_s.begin(), stage_s.end());
    res.bottleneck_s.push_back(bottleneck);
    res.total_bottleneck_s += bottleneck;
  }
  res.final_map = map;
  return res;
}

}  // namespace dynmo::balance
