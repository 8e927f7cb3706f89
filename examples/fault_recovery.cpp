// Fault injection end to end (docs/FAULT.md): the threaded runtime loses
// a live worker mid-iteration beside a half-speed straggler, the
// missed-heartbeat monitor detects the silence, and the survivors
// rendezvous on a checkpoint-coordinated restart — landing on
// bit-identical checksums to a fault-free run.  The
// simulated session then prices the same scenario: restart stall plus the
// work lost since the last periodic checkpoint, at two cadences.
//
//   ./build/examples/example_fault_recovery
#include <cstdio>

#include "model/layer.hpp"
#include "repack/elastic.hpp"
#include "runtime/session.hpp"
#include "runtime/threaded.hpp"

int main() {
  using namespace dynmo;

  // --- threaded: heartbeat-detected loss, prefix recovery ---------------
  runtime::ThreadedConfig tc;
  tc.workers = 3;
  tc.num_layers = 6;
  tc.hidden = 32;
  tc.batch_rows = 4;
  tc.microbatches = 4;
  tc.apply_weight_update = true;
  tc.heartbeat_timeout_s = 0.15;

  runtime::PlanPhase phase;
  phase.map = pipeline::StageMap::uniform(tc.num_layers, tc.workers);
  phase.iterations = 10;

  runtime::ThreadedPipeline clean(tc);
  const auto ref = clean.run({phase});
  std::printf("fault-free run   : %d iters, checksum %016llx\n",
              ref.iterations_run,
              static_cast<unsigned long long>(ref.output_checksum));

  tc.checkpoint_interval_iters = 4;           // cuts at iterations 4 and 8
  tc.fault.losses = {{.iter = 6, .worker = 2}};  // dies mid-iteration 6
  // Worker 1 runs at half speed from iteration 2: slower, never silent.
  tc.fault.stragglers = {{.worker = 1, .multiplier = 0.5, .from_iter = 2}};
  runtime::ThreadedPipeline faulty(tc);
  const auto rec = faulty.run({phase});
  std::printf("worker 2 lost    : detected by heartbeat (straggler 1 kept "
              "beating), rolled back to the cut at 4,\n");
  std::printf("                   recovered on %d survivors, checksum "
              "%016llx\n",
              tc.workers - rec.worker_losses,
              static_cast<unsigned long long>(rec.output_checksum));
  const bool identical =
      rec.output_checksum == ref.output_checksum &&
      rec.weight_checksums == ref.weight_checksums;
  std::printf("checksums match  : %s (%llu checkpoint bytes broadcast)\n\n",
              identical ? "YES" : "NO",
              static_cast<unsigned long long>(rec.bytes_checkpoint));

  // --- session: the same loss, priced -----------------------------------
  const auto m = model::make_gpt({.num_blocks = 24,
                                  .include_embedding = false,
                                  .include_lm_head = false});
  const auto priced = [&](std::int64_t cadence) {
    runtime::SessionConfig cfg;
    cfg.pipeline_stages = 8;
    cfg.micro_batch = 2;
    cfg.num_microbatches = 16;
    cfg.iterations = 1000;
    cfg.sim_stride = 10;
    cfg.rebalance_interval = 100;
    cfg.mode = runtime::BalancingMode::DynMo;
    cfg.elastic.enabled = true;
    cfg.elastic.interval = 500;
    cfg.elastic.min_workers = 2;
    cfg.elastic.payoff_window_iters = 1e-3;
    cfg.elastic.restart_alpha_s = 0.5;
    cfg.elastic.checkpoint_bw = 2.0 * 1024 * 1024 * 1024;
    cfg.fault.losses = {{.iter = 450, .worker = 3}};
    cfg.checkpoint_interval_iters = cadence;
    repack::MockEckCluster eck;
    cfg.elastic.cluster = &eck;
    runtime::TrainingSession session(m, cfg, nullptr);
    return session.run();
  };
  std::printf("session pricing of a loss at iteration 450 (8 workers):\n");
  std::printf("%-22s %10s %12s %12s %8s\n", "cadence", "stall s",
              "lost-work s", "write-tax s", "ckpts");
  for (const std::int64_t cadence : {std::int64_t{0}, std::int64_t{100}}) {
    const auto r = priced(cadence);
    std::printf("%-22lld %10.2f %12.2f %12.2f %8d\n",
                static_cast<long long>(cadence), r.restart_stall_s,
                r.lost_work_s, r.checkpoint_write_s, r.checkpoints_written);
  }
  std::printf("\nthe tighter cadence bounds lost work at the price of the "
              "periodic write tax\n");
  return identical ? 0 : 1;
}
