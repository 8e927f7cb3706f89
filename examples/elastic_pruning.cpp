// Elastic training under gradual pruning: as the Zhu–Gupta schedule prunes
// the model to 90% sparsity, DynMo rebalances after every pruning step and
// re-packs the shrinking workload onto fewer GPUs, releasing the rest back
// to the (mock) ECK job manager — the paper's Figure-4 workflow end to end.
//
//   ./build/examples/elastic_pruning
#include <cstdio>

#include "dynmo/dynmo.hpp"
#include "repack/elastic.hpp"

int main() {
  using namespace dynmo;

  const auto model = model::make_gpt({.num_blocks = 32,
                                      .hidden = 4096,
                                      .include_embedding = false,
                                      .include_lm_head = false});
  std::printf("model: gpt-32, hidden 4096, %.1fB params\n",
              static_cast<double>(model.total_params()) / 1e9);

  Options opt;
  opt.session.pipeline_stages = 8;
  opt.session.data_parallel = 1;
  opt.session.micro_batch = 1;
  opt.session.num_microbatches = 32;
  opt.session.iterations = 10000;
  opt.session.sim_stride = 100;
  opt.session.mode = runtime::BalancingMode::DynMo;
  opt.session.algorithm = balance::Algorithm::Partition;
  opt.session.rebalance_interval = 1000;
  opt.session.repack = true;
  opt.session.repack_interval = 1000;
  opt.session.repack_policy =
      runtime::SessionConfig::RepackPolicy::MemoryFirstFit;

  Session session(model, UseCase::GradualPruning, opt);
  const auto result = session.run();

  std::printf("\n%-8s %10s %8s %8s %10s\n", "iter", "iter time", "idle",
              "GPUs", "sparsity~");
  for (const auto& s : result.samples) {
    if (s.iter % 1000 != 0) continue;
    std::printf("%-8lld %9.1fms %7.1f%% %8d %9.0f%%\n",
                static_cast<long long>(s.iter), s.time_s * 1e3,
                100.0 * s.idleness, s.active_workers,
                100.0 * (1.0 - s.compute_fraction));
  }

  std::printf("\nthroughput: %.0f tokens/s, avg GPUs used: %.1f / 8 "
              "(%d repacks, overhead %.3f%%)\n",
              result.tokens_per_sec, result.avg_active_workers,
              result.repack_count, 100.0 * result.overhead_fraction);

  // Release the freed GPUs through the ECK-style job-manager protocol.
  repack::MockEckCluster cluster;
  repack::JobManagerClient pod(&cluster, "dynmo-train", 8);
  const int still_needed = static_cast<int>(
      result.final_map.active_stages());
  if (pod.resize_gpu_claim(still_needed)) {
    std::printf("released %d GPUs to the cluster; a pending job grabbed %d\n",
                8 - still_needed,
                cluster.schedule_pending_job(8 - still_needed));
  }
  return 0;
}
