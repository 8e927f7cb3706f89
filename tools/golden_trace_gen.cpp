// golden_trace_gen: replay the canonical golden-trace scenarios
// (docs/TRANSPORT.md "Golden-trace gate").
//
//   golden_trace_gen --scenario session        --out DIR [--decision-path P]
//   golden_trace_gen --scenario large_grid     --out DIR [--decision-path P]
//   golden_trace_gen --scenario session_elastic --out DIR [--decision-path P]
//   golden_trace_gen --scenario session_repack --out DIR [--decision-path P]
//   golden_trace_gen --scenario threaded_fault --out DIR [--transport T]
//
// `session` is the small modeled session from the telemetry tests (8
// stages, 400 iterations at stride 10, Diffusion rebalancing every frame):
// single-threaded and fully modeled, it pins the trace *format* — every
// row, every column, byte for byte.  `threaded_fault` is the
// heartbeat-detected worker-loss recovery from the fault tests (3 workers,
// loss at iteration 6, checkpoint cadence 4): real threads on a real
// transport, it pins the determinism *contract* — the rows rank 0 emits
// and the recovery checksums must be identical on every backend.  Every
// modeled column is a pure function of the scenario; the threaded runtime's
// measured wall-clock columns are declared `"deterministic": false` in its
// catalog, and the gate blanks exactly those before comparing.
//
// `large_grid` is the canonical large deployment for the incremental
// decision path: a 2×32 DP×PP grid on 8 DGX-H100 nodes (64 ranks),
// capacity-aware diffusion every frame.  `--decision-path
// incremental|rescan` selects the cost-surface implementation inside the
// rebalancer (SessionConfig::incremental_decisions); the gate replays the
// scenario under BOTH and byte-compares every telemetry table — the
// session-level proof that the incremental surface changes no decision
// (docs/COST_MODEL.md "Incremental recomputation").
//
// `session_elastic` and `session_repack` pin the checkpoint-coordinated
// restart (docs/RUNTIME.md): the first drives every restart trigger —
// worker loss, request_shrink() preemption, elastic shrink and expand —
// through start/step/finish with a straggler window and periodic
// checkpoints; the second pins throughput-preserving re-packing with one
// accepted and several payoff-rejected packs.  Their elastic_transitions
// and fault_events tables are the byte gate on those paths.
//
// For threaded_fault the tool also runs the fault-free twin of the same
// seed in memory and refuses (exit 2) to emit a golden whose recovery
// checksums disagree with it — a golden that violates the paper's
// bit-identical-recovery claim must never be committed.  The checksums
// land in DIR/checksums.txt for the gate's cross-backend compare.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "dynmo/dynmo.hpp"
#include "repack/elastic.hpp"
#include "runtime/threaded.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --scenario session|large_grid|session_elastic|"
               "session_repack|threaded_fault "
               "--out DIR [--transport inproc|socket] "
               "[--decision-path incremental|rescan]\n",
               argv0);
  return 64;
}

void run_session(const std::string& out, bool incremental) {
  using namespace dynmo;
  // Mirrors tests/test_telemetry.cpp traced_options(): change one only in
  // lockstep with the other (and regenerate the golden).
  Options opt;
  opt.session.pipeline_stages = 8;
  opt.session.micro_batch = 2;
  opt.session.num_microbatches = 16;
  opt.session.iterations = 400;
  opt.session.sim_stride = 10;
  opt.session.rebalance_interval = 1;
  opt.session.mode = runtime::BalancingMode::DynMo;
  opt.session.algorithm = balance::Algorithm::Diffusion;
  opt.session.payoff_window_iters = 20.0;
  opt.session.telemetry.dir = out;
  opt.session.incremental_decisions = incremental;
  Session session(model::make_gpt({.num_blocks = 16,
                                   .include_embedding = false,
                                   .include_lm_head = false}),
                  UseCase::SparseAttention, opt);
  const auto result = session.run();
  std::printf("session: %zu frames traced, tokens/s %.6g\n",
              static_cast<std::size_t>(opt.session.iterations /
                                       opt.session.sim_stride),
              result.tokens_per_sec);
}

void run_large_grid(const std::string& out, bool incremental) {
  using namespace dynmo;
  // Canonical large-grid scenario for the incremental decision path: the
  // golden is generated once (rescan and incremental agree byte-for-byte,
  // gated by check_golden_trace.sh) and replayed under both paths in CI.
  Options opt;
  opt.session.pipeline_stages = 32;
  opt.session.data_parallel = 2;
  opt.session.micro_batch = 2;
  opt.session.num_microbatches = 16;
  opt.session.iterations = 200;
  opt.session.sim_stride = 10;
  opt.session.rebalance_interval = 1;
  opt.session.mode = runtime::BalancingMode::DynMo;
  opt.session.algorithm = balance::Algorithm::Diffusion;
  opt.session.payoff_window_iters = 20.0;
  opt.session.deployment = cluster::Deployment::make_grid_topology_aware(
      cluster::Topology::make_dgx_h100(8), /*data_parallel=*/2,
      /*num_stages=*/32, cluster::GridOrientation::PpInner);
  opt.session.telemetry.dir = out;
  opt.session.incremental_decisions = incremental;
  Session session(model::make_gpt({.num_blocks = 64,
                                   .include_embedding = false,
                                   .include_lm_head = false}),
                  UseCase::SparseAttention, opt);
  const auto result = session.run();
  std::printf("large_grid[%s]: %zu frames traced, tokens/s %.6g\n",
              incremental ? "incremental" : "rescan",
              static_cast<std::size_t>(opt.session.iterations /
                                       opt.session.sim_stride),
              result.tokens_per_sec);
}

/// Load lull then spike: layers past the first `heavy` nearly vanish over
/// [lull_begin, lull_end) and come back at full weight afterwards — the
/// shape that makes the elastic controller release workers and reclaim
/// them (mirrors tests/test_elastic.cpp SpikeEngine).
class LullEngine : public dynmo::dynamic::DynamismEngine {
 public:
  LullEngine(std::int64_t lull_begin, std::int64_t lull_end,
             std::size_t heavy)
      : begin_(lull_begin), end_(lull_end), heavy_(heavy) {}
  std::string name() const override { return "lull"; }
  bool is_dynamism_point(std::int64_t iter) const override {
    return iter == begin_ || iter == end_;
  }
  void step(std::int64_t iter,
            std::span<dynmo::model::LayerState> states) override {
    const bool lull = iter >= begin_ && iter < end_;
    for (std::size_t l = heavy_; l < states.size(); ++l) {
      states[l].compute_scale = lull ? 0.02 : 1.0;
    }
  }
  std::int64_t recommended_rebalance_interval() const override {
    return 100;
  }

 private:
  std::int64_t begin_, end_;
  std::size_t heavy_;
};

void run_session_elastic(const std::string& out, bool incremental) {
  using namespace dynmo;
  // Every restart trigger in one run (docs/RUNTIME.md "Checkpoint-
  // coordinated restart"): a scripted worker loss at 250, an arbiter-style
  // request_shrink at 600, a voluntary elastic shrink in the lull and the
  // expand when the load returns, plus a straggler window and periodic
  // checkpoints the loss rolls back to.
  runtime::SessionConfig cfg;
  cfg.pipeline_stages = 8;
  cfg.micro_batch = 2;
  cfg.num_microbatches = 16;
  cfg.iterations = 3000;
  cfg.sim_stride = 50;
  cfg.rebalance_interval = 100;
  cfg.mode = runtime::BalancingMode::DynMo;
  cfg.algorithm = balance::Algorithm::Partition;
  cfg.balance_by = balance::BalanceBy::Time;
  cfg.elastic.enabled = true;
  cfg.elastic.interval = 500;
  cfg.elastic.min_workers = 2;
  cfg.elastic.payoff_window_iters = 600.0;
  cfg.elastic.restart_alpha_s = 0.5;
  cfg.elastic.checkpoint_bw = 16.0 * 1024 * 1024 * 1024;
  repack::MockEckCluster eck;
  cfg.elastic.cluster = &eck;
  cfg.fault.losses = {{.iter = 250, .worker = 3}};
  cfg.fault.slowdowns = {
      {.worker = 1, .multiplier = 0.5, .from_iter = 2200, .until_iter = 2600}};
  cfg.checkpoint_interval_iters = 200;
  cfg.telemetry.dir = out;
  cfg.incremental_decisions = incremental;
  const auto m = model::make_gpt({.num_blocks = 24,
                                  .include_embedding = false,
                                  .include_lm_head = false});
  LullEngine engine(/*lull_begin=*/1000, /*lull_end=*/2000, /*heavy=*/4);
  runtime::TrainingSession session(m, cfg, &engine);
  session.start();
  while (session.current_iter() < 600) (void)session.step();
  session.request_shrink(6);
  while (!session.done()) (void)session.step();
  const auto r = session.finish();
  std::printf("session_elastic[%s]: losses %d forced %d shrinks %d expands "
              "%d stragglers %d checkpoints %d, final %d stages\n",
              incremental ? "incremental" : "rescan", r.worker_losses,
              r.forced_shrinks, r.shrinks, r.expands, r.straggler_events,
              r.checkpoints_written, r.final_map.num_stages());
}

void run_session_repack(const std::string& out, bool incremental) {
  using namespace dynmo;
  // Throughput-preserving re-packing under a payoff window: the early-exit
  // model concentrates, the first packs cannot amortize their transfer
  // within the window (rejected rows), a later one can (accepted row,
  // migration rows, post-pack polish).
  Options opt;
  opt.session.pipeline_stages = 16;
  opt.session.micro_batch = 2;
  opt.session.num_microbatches = 32;
  opt.session.iterations = 3000;
  opt.session.sim_stride = 50;
  opt.session.rebalance_interval = 100;
  opt.session.mode = runtime::BalancingMode::DynMo;
  opt.session.algorithm = balance::Algorithm::Diffusion;
  opt.session.repack = true;
  opt.session.repack_interval = 500;
  opt.session.repack_policy =
      runtime::SessionConfig::RepackPolicy::ThroughputPreserving;
  opt.session.payoff_window_iters = 200.0;
  opt.session.telemetry.dir = out;
  opt.session.telemetry.per_layer = false;
  opt.session.incremental_decisions = incremental;
  Session session(model::make_gpt({.num_blocks = 24,
                                   .include_embedding = false,
                                   .include_lm_head = false}),
                  UseCase::EarlyExit, opt);
  const auto r = session.run();
  std::printf("session_repack[%s]: repacks %d payoff rejections %d, final "
              "%d stages\n",
              incremental ? "incremental" : "rescan", r.repack_count,
              r.maps_rejected_payoff, r.final_map.num_stages());
}

int run_threaded_fault(const std::string& out, dynmo::comm::TransportKind k) {
  using namespace dynmo;
  // Mirrors tests/test_fault.cpp threaded_fault_config() + the
  // HeartbeatDetectedLossRecoversBitIdentically scenario.
  runtime::ThreadedConfig cfg;
  cfg.workers = 3;
  cfg.num_layers = 6;
  cfg.hidden = 16;
  cfg.batch_rows = 2;
  cfg.microbatches = 4;
  cfg.apply_weight_update = true;
  cfg.seed = 0xfee1;
  cfg.heartbeat_timeout_s = 0.15;
  cfg.transport = k;
  const std::vector<runtime::PlanPhase> plan = {
      {.map = pipeline::StageMap::uniform(6, 3), .iterations = 10}};

  // Fault-free twin first: the reference the recovery must reproduce.
  runtime::ThreadedPipeline clean(cfg);
  const auto ref = clean.run(plan);

  cfg.checkpoint_interval_iters = 4;
  cfg.fault.losses = {{.iter = 6, .worker = 2}};
  cfg.telemetry.dir = out;
  runtime::ThreadedPipeline faulty(cfg);
  const auto rep = faulty.run(plan);

  const bool match = rep.output_checksum == ref.output_checksum &&
                     rep.weight_checksums == ref.weight_checksums;
  const std::string path = out + "/checksums.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "scenario threaded_fault\n");
  std::fprintf(f, "output_checksum %016" PRIx64 "\n", rep.output_checksum);
  for (std::size_t l = 0; l < rep.weight_checksums.size(); ++l) {
    std::fprintf(f, "weight_checksum %zu %016" PRIx64 "\n", l,
                 rep.weight_checksums[l]);
  }
  std::fprintf(f, "worker_losses %d\n", rep.worker_losses);
  std::fprintf(f, "restarts %d\n", rep.restarts);
  std::fprintf(f, "bytes_checkpoint %" PRIu64 "\n", rep.bytes_checkpoint);
  std::fprintf(f, "fault_free_match %d\n", match ? 1 : 0);
  std::fclose(f);

  if (!match) {
    std::fprintf(stderr,
                 "FATAL: recovery checksums diverge from the fault-free "
                 "twin — refusing to emit a golden that breaks the "
                 "bit-identical-recovery contract\n");
    return 2;
  }
  std::printf("threaded_fault[%s]: %d losses recovered, output %016" PRIx64
              " (matches fault-free twin)\n",
              comm::to_string(k), rep.worker_losses, rep.output_checksum);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario, out;
  auto kind = dynmo::comm::TransportKind::InProc;
  bool incremental = true;
  for (int i = 1; i < argc; ++i) {
    const auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(64);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--scenario") == 0) {
      scenario = need("--scenario");
    } else if (std::strcmp(argv[i], "--out") == 0) {
      out = need("--out");
    } else if (std::strcmp(argv[i], "--transport") == 0) {
      kind = dynmo::comm::parse_transport(need("--transport"));
    } else if (std::strcmp(argv[i], "--decision-path") == 0) {
      const std::string p = need("--decision-path");
      if (p == "incremental") {
        incremental = true;
      } else if (p == "rescan") {
        incremental = false;
      } else {
        std::fprintf(stderr, "unknown decision path '%s'\n", p.c_str());
        return 64;
      }
    } else {
      return usage(argv[0]);
    }
  }
  if (scenario.empty() || out.empty()) return usage(argv[0]);

  try {
    if (scenario == "session") {
      run_session(out, incremental);
      return 0;
    }
    if (scenario == "large_grid") {
      run_large_grid(out, incremental);
      return 0;
    }
    if (scenario == "session_elastic") {
      run_session_elastic(out, incremental);
      return 0;
    }
    if (scenario == "session_repack") {
      run_session_repack(out, incremental);
      return 0;
    }
    if (scenario == "threaded_fault") {
      return run_threaded_fault(out, kind);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown scenario '%s'\n", scenario.c_str());
  return usage(argv[0]);
}
