// The full elastic lifecycle end to end (docs/RUNTIME.md): a training job
// whose cluster footprint breathes with the workload.
//
// A 24-layer GPT's tail goes near-idle for a third of the run (early-exit
// style concentration), then spikes back.  With SessionConfig::elastic on,
// the session shrinks onto fewer GPUs through a checkpoint-coordinated
// restart — releasing the rest to the mock ECK control plane — and
// re-claims them when the spike returns, because the projected bottleneck
// gain passes the same payoff-window pricing migrations use.
//
//   ./build/example_elastic_lifecycle
#include <cstdio>

#include "dynmo/dynmo.hpp"
#include "repack/elastic.hpp"

namespace {

using namespace dynmo;

class SpikeEngine : public dynamic::DynamismEngine {
 public:
  SpikeEngine(std::int64_t lull_begin, std::int64_t lull_end,
              std::size_t heavy_layers)
      : begin_(lull_begin), end_(lull_end), heavy_(heavy_layers) {}

  std::string name() const override { return "spike"; }
  bool is_dynamism_point(std::int64_t iter) const override {
    return iter == begin_ || iter == end_;
  }
  void step(std::int64_t iter,
            std::span<model::LayerState> states) override {
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

}  // namespace

int main() {
  const auto model = model::make_gpt({.num_blocks = 24,
                                      .include_embedding = false,
                                      .include_lm_head = false});

  runtime::SessionConfig cfg;
  cfg.pipeline_stages = 8;
  cfg.micro_batch = 2;
  cfg.num_microbatches = 16;
  cfg.iterations = 3000;
  cfg.sim_stride = 10;
  cfg.rebalance_interval = 100;
  cfg.mode = runtime::BalancingMode::DynMo;
  cfg.algorithm = balance::Algorithm::Partition;

  cfg.elastic.enabled = true;
  cfg.elastic.interval = 500;
  cfg.elastic.min_workers = 2;
  cfg.elastic.payoff_window_iters = 600.0;
  cfg.elastic.restart_alpha_s = 0.5;
  cfg.elastic.checkpoint_bw = 16.0 * 1024 * 1024 * 1024;
  repack::MockEckCluster eck;
  cfg.elastic.cluster = &eck;

  SpikeEngine engine(/*lull_begin=*/1000, /*lull_end=*/2000,
                     /*heavy_layers=*/4);
  runtime::TrainingSession session(model, cfg, &engine);
  const auto r = session.run();

  std::printf("%-8s %10s %8s %8s\n", "iter", "iter time", "idle", "GPUs");
  for (const auto& s : r.samples) {
    if (s.iter % 250 != 0) continue;
    std::printf("%-8lld %9.1fms %7.1f%% %8d\n",
                static_cast<long long>(s.iter), s.time_s * 1e3,
                100.0 * s.idleness, s.active_workers);
  }

  std::printf("\nlifecycle: %d shrink(s), %d expand(s), %.2f s of restart "
              "stall, %.4f GPU-hours saved\n",
              r.shrinks, r.expands, r.restart_stall_s, r.gpu_hours_saved);
  std::printf("control plane saw %zu PATCHes; %d GPU(s) free at the end\n",
              eck.patches().size(), eck.free_gpus());
  std::printf("throughput: %.0f tokens/s on avg %.2f / 8 GPUs\n",
              r.tokens_per_sec, r.avg_active_workers);
  return 0;
}
