// Trace replay walkthrough: record a session, query it, re-run it offline.
//
// 1. Record — run a continually-training MoE pipeline (DynMo/Diffusion on
//    two simulated DGX-H100 nodes) with SessionConfig::telemetry pointed
//    at a trace directory.
// 2. Discover — open the trace with telemetry::TraceReader, list what
//    the catalog declares (tools/query_trace.py does the same from the
//    shell), and read every table back into its typed rows: each count
//    must match the catalog.
// 3. Replay, same configuration — balance::replay() over the recorded
//    per-layer loads must reproduce the session's per-iteration bottleneck
//    sequence bit-for-bit (the exit code enforces it; CI runs this).
// 4. Replay, different configurations — the same captured history under
//    HierarchicalDiffusion and under a 10x payoff window, diffed against
//    the recording: what *would* have happened on this exact load history.
//
// Build & run:
//   cmake -B build -G Ninja -DDYNMO_BUILD_EXAMPLES=ON && cmake --build build
//   ./build/example_trace_replay [trace-dir]
#include <array>
#include <cstdio>
#include <string>
#include <tuple>
#include <utility>

#include "balance/replay.hpp"
#include "dynmo/dynmo.hpp"
#include "telemetry/trace_reader.hpp"

using namespace dynmo;

namespace {

void print_arm(const char* name, const balance::ReplayResult& r) {
  std::printf("%-26s %14.3f %9d %9d %11.1f %11.1f\n", name,
              r.total_bottleneck_s, r.maps_accepted, r.maps_rejected_payoff,
              r.migration_bytes / 1e6, r.migration_bytes_avoided / 1e6);
}

/// Rows read back from each table through TraceReader::read<Row>(), in
/// table_specs() order.
template <std::size_t... I>
std::array<std::size_t, telemetry::kNumTables> read_back(
    const telemetry::TraceReader& reader, std::index_sequence<I...>) {
  return {reader.read<std::tuple_element_t<I, telemetry::TraceRows>>()
              .size()...};
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir =
      argc > 1 ? argv[1] : std::string("/tmp/dynmo_trace_replay");

  // --- 1. Record ----------------------------------------------------------
  const auto dep = cluster::Deployment::make_topology_aware(
      cluster::Topology::make_dgx_h100(2), /*num_stages=*/16);
  const auto model =
      model::make_moe(model::llama_moe_3_5b_config(), "llama-moe-3.5b");

  Options opt;
  opt.session.pipeline_stages = 16;
  opt.session.deployment = dep;
  opt.session.mode = runtime::BalancingMode::DynMo;
  opt.session.algorithm = balance::Algorithm::Diffusion;
  opt.session.rebalance_interval = 1;  // MoE: every-iteration cadence
  opt.session.payoff_window_iters = 20.0;
  opt.session.iterations = 200;
  opt.session.sim_stride = 2;
  opt.session.telemetry.dir = dir;  // <- the only telemetry knob
  opt.moe.tokens_per_microbatch = 512;

  Session session(model, UseCase::Moe, opt);
  const auto recorded = session.run();
  std::printf("recorded: %.0f tokens/s, %d rebalances, %d maps accepted\n",
              recorded.tokens_per_sec, recorded.rebalance_count,
              recorded.maps_accepted);
  std::printf("trace:    %s\n\n", dir.c_str());

  // --- 2. Discover --------------------------------------------------------
  telemetry::TraceReader reader(dir);
  std::printf("catalog (%s v%d):\n", reader.catalog().format.c_str(),
              reader.catalog().schema_version);
  const auto rows_read = read_back(
      reader, std::make_index_sequence<telemetry::kNumTables>{});
  int unread = 0;
  for (const auto& t : reader.catalog().tables) {
    const auto index = static_cast<std::size_t>(
        &telemetry::table_spec(t.name) - telemetry::table_specs().data());
    const bool ok = rows_read[index] == static_cast<std::size_t>(t.rows);
    unread += ok ? 0 : 1;
    std::printf("  %-22s %6lld rows  (%s)%s\n", t.name.c_str(),
                static_cast<long long>(t.rows), t.file.c_str(),
                ok ? "" : "  READ-BACK MISMATCH");
  }
  std::printf("\n");

  // --- 3. Replay, same configuration --------------------------------------
  const auto loads = reader.replayed_loads();
  const auto net = dep.make_cost_model();
  const auto base_cfg = reader.replay_config();
  const auto base = balance::replay(loads, base_cfg, net);

  const auto iterations = reader.read<telemetry::IterationRow>();
  int mismatches = 0;
  for (std::size_t i = 0; i < iterations.size(); ++i) {
    if (iterations[i].bottleneck_s != base.bottleneck_s[i]) ++mismatches;
  }
  std::printf("same-config replay: %zu frames, %d bottleneck mismatches "
              "(%s)\n\n",
              base.bottleneck_s.size(), mismatches,
              mismatches == 0 ? "bit-for-bit" : "NOT bit-for-bit");

  // --- 4. Replay, different configurations --------------------------------
  // HierarchicalDiffusion needs its deployment-bound decider re-injected
  // (the catalog records the algorithm, not the topology object); the cost
  // scaling mirrors what the session resolves.
  auto hier_cfg = base_cfg;
  hier_cfg.rebalance.algorithm = balance::Algorithm::HierarchicalDiffusion;
  cluster::HierConfig hc;
  hc.payoff_window_iters = base_cfg.rebalance.payoff_window_iters;
  hc.migration_cost_multiplier =
      reader.run().migration_cost_multiplier *
      reader.run().migration_exposed_fraction;
  hier_cfg.rebalance.hierarchical_decider =
      [&dep, hc](const balance::DiffusionRequest& req,
                 const pipeline::StageMap& current) {
        const auto ranks = dep.stage_to_rank().first(
            static_cast<std::size_t>(current.num_stages()));
        auto r = cluster::HierarchicalBalancer(dep.topology(), hc)
                     .balance(req, current, ranks);
        balance::DiffusionResult d;
        d.map = std::move(r.map);
        d.rounds = r.rounds;
        return d;
      };
  const auto hier = balance::replay(loads, hier_cfg, net);

  auto window_cfg = base_cfg;
  window_cfg.rebalance.payoff_window_iters *= 10.0;
  const auto long_window = balance::replay(loads, window_cfg, net);

  std::printf("%-26s %14s %9s %9s %11s %11s\n", "configuration",
              "bottleneck[s]", "accepted", "rej.pay", "moved[MB]",
              "avoided[MB]");
  print_arm("recorded (diffusion)", base);
  print_arm("hierarchical diffusion", hier);
  print_arm("10x payoff window", long_window);
  std::printf("\nhierarchical vs flat: %+.2f%% total bottleneck, "
              "%.1f MB less traffic\n",
              100.0 * (hier.total_bottleneck_s / base.total_bottleneck_s -
                       1.0),
              (base.migration_bytes - hier.migration_bytes) / 1e6);

  return mismatches == 0 && unread == 0 ? 0 : 1;
}
