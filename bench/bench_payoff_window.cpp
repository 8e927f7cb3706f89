// Payoff-window acceptance vs. rebalance cadence (ROADMAP "Cost-aware map
// acceptance").
//
// MoE routing noise on a fabric-heavy deployment (8 nodes x 2 GPUs, 16
// pipeline stages) rebalanced at cadences from every iteration to every
// 100th.  For each cadence the sweep compares bottleneck-only hysteresis
// (window 0 — the pre-payoff behavior) against payoff windows from "must
// amortize before the next rebalance" up to generous multiples of the
// cadence.  The shape to observe at fast cadences: a window of ~10x the
// cadence rejects the barely-better maps that move GiBs of expert state,
// cutting migration traffic several-fold at equal-or-better throughput;
// tighter windows (2-5x) go further — near-zero fabric traffic — but
// also reject the structural rebalance and give back a few percent of
// throughput.  At slow cadences the window is inert because migrations
// amortize over hundreds of iterations anyway.
//
// `--smoke` shrinks the simulated window for CI; `--json PATH` records the
// sweep as a BENCH_*.json perf trajectory (see bench/record_bench.sh and
// docs/BENCHMARKS.md).  `--trace-dir DIR` records one telemetry
// trace per (cadence, window) point under DIR — query the
// rebalance_decisions table for each point's accept/reject ledger, or
// replay any point under a different window (docs/TELEMETRY.md).
#include <cstring>
#include <vector>

#include "bench_common.hpp"

namespace {

struct SweepRow {
  std::int64_t cadence = 0;
  double window = 0.0;
  double tokens_per_sec = 0.0;
  double migration_gib = 0.0;       ///< issued, intra + inter, all replicas
  double inter_node_gib = 0.0;      ///< issued across the fabric
  double avoided_gib = 0.0;         ///< rejected candidates' traffic
  int accepted = 0;
  int rejected_payoff = 0;
};

void write_json(const char* path, const std::vector<SweepRow>& rows) {
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    std::exit(2);
  }
  std::fprintf(f, "{\n  \"bench\": \"payoff_window\",\n  \"sweep\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    std::fprintf(
        f,
        "    {\"cadence\": %lld, \"window\": %g, \"tokens_per_sec\": %.4g, "
        "\"migration_gib\": %.6g, \"inter_node_gib\": %.6g, "
        "\"avoided_gib\": %.6g, \"accepted\": %d, "
        "\"rejected_payoff\": %d}%s\n",
        static_cast<long long>(r.cadence), r.window, r.tokens_per_sec,
        r.migration_gib, r.inter_node_gib, r.avoided_gib, r.accepted,
        r.rejected_payoff, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dynmo;
  bool smoke = false;
  const char* json_path = bench::json_path_arg(argc, argv);
  const char* trace_dir = bench::trace_dir_arg(argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const auto model = model::make_moe(model::llama_moe_3_5b_config(), "m");
  Options base;
  base.session.pipeline_stages = 16;
  base.session.num_microbatches = 32;
  base.session.iterations = smoke ? 60 : 300;
  base.session.sim_stride = 10;
  base.moe.tokens_per_microbatch = 512;
  // A bottleneck-only bar a routing swing easily clears: the failure mode
  // the payoff window fixes (a 1%-better map that moves tens of GiB
  // passes any pure-bottleneck hysteresis).
  base.session.min_bottleneck_gain = 0.005;
  base.session.mode = runtime::BalancingMode::DynMo;
  base.session.algorithm = balance::Algorithm::Diffusion;
  base.session.deployment = cluster::Deployment::make_topology_aware(
      cluster::Topology::make_homogeneous(
          8, 2, hw::GpuSpec::h100_sxm5(),
          cluster::default_link(cluster::LinkType::NvLink),
          cluster::default_link(cluster::LinkType::InfiniBand)),
      16);

  std::printf(
      "Payoff-window acceptance: MoE on 8x2-GPU nodes, 16 stages, flat "
      "diffusion\n%s\n",
      smoke ? "(smoke mode: short window)" : "");
  std::printf("%8s %8s %12s %12s %12s %12s %9s %9s\n", "cadence", "window",
              "tokens/s", "moved GiB", "inter GiB", "avoided GiB", "accept",
              "rej-pay");

  constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;
  std::vector<SweepRow> rows;
  for (const std::int64_t cadence : {1, 10, 100}) {
    for (const double window_mult : {0.0, 2.0, 5.0, 10.0, 50.0}) {
      Options opt = base;
      opt.session.rebalance_interval = cadence;
      opt.session.payoff_window_iters =
          window_mult * static_cast<double>(cadence);
      if (trace_dir != nullptr) {
        char slug[64];
        std::snprintf(slug, sizeof slug, "cadence%lld_window%g",
                      static_cast<long long>(cadence),
                      opt.session.payoff_window_iters);
        opt.session.telemetry.dir = std::string(trace_dir) + "/" + slug;
      }
      Session s(model, UseCase::Moe, opt);
      const auto r = s.run();
      SweepRow row;
      row.cadence = cadence;
      row.window = opt.session.payoff_window_iters;
      row.tokens_per_sec = r.tokens_per_sec;
      row.migration_gib = (r.intra_node_migration_bytes +
                           r.inter_node_migration_bytes) /
                          kGiB;
      row.inter_node_gib = r.inter_node_migration_bytes / kGiB;
      row.avoided_gib = r.migration_bytes_avoided / kGiB;
      row.accepted = r.maps_accepted;
      row.rejected_payoff = r.maps_rejected_payoff;
      rows.push_back(row);
      std::printf("%8lld %8g %12.0f %12.2f %12.2f %12.2f %9d %9d\n",
                  static_cast<long long>(cadence), row.window,
                  row.tokens_per_sec, row.migration_gib, row.inter_node_gib,
                  row.avoided_gib, row.accepted, row.rejected_payoff);
    }
  }
  if (json_path != nullptr) write_json(json_path, rows);
  return 0;
}
