// The four benchmark workloads.  Each is sized so that one layer of the
// simulator does nearly all of the wall-clock work (README.md has the
// table of which layer dominates where, and why each workload exists).
//
// Every workload is a pure function of the seed: it goes into
// SessionConfig::seed (the profiling-noise and fault streams),
// MoeEngineConfig::seed (token routing) and ThreadedConfig::seed (weights
// and inputs).  The sparse-attention and early-exit engines keep their
// fixed default seeds: their per-layer skew sets how many rounds the
// balancers run, and a seed-dependent skew would make the op cost, not
// just the inputs, vary with the seed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dynamic/early_exit.hpp"
#include "dynamic/moe.hpp"
#include "dynamic/sparse_attn.hpp"
#include "model/layer.hpp"
#include "runtime/session.hpp"
#include "runtime/threaded.hpp"

namespace perfbench {

namespace dm = dynmo;

/// A TrainingSession workload.  One *repeat* is a full session of
/// `cfg.iterations`; one *op* is one step() window of `cfg.sim_stride`
/// iterations.
struct SessionWorkload {
  std::function<dm::model::ModelDesc()> make_model;
  /// A fresh engine per repeat: engines cache per-iteration routing state.
  std::function<std::unique_ptr<dm::dynamic::DynamismEngine>(
      const dm::model::ModelDesc&)>
      make_engine;
  dm::runtime::SessionConfig cfg;
};

/// The ThreadedPipeline workload.  One op is one run() of `plan`; its
/// checksums must equal those of `reference` (same iteration count on a
/// fixed uniform map), since migration and restarts never change the math.
struct ThreadedWorkload {
  dm::runtime::ThreadedConfig cfg;
  std::vector<dm::runtime::PlanPhase> plan;
  std::vector<dm::runtime::PlanPhase> reference;
};

inline const std::vector<std::string>& session_workload_names() {
  static const std::vector<std::string> names = {
      "moe_routing", "deep_diffusion", "deep_partition_faults"};
  return names;
}

inline dm::model::ModelDesc deep_gpt(std::size_t blocks) {
  dm::model::GptConfig g;
  g.num_blocks = blocks;
  g.include_embedding = false;
  g.include_lm_head = false;
  return dm::model::make_gpt(g, "gpt-" + std::to_string(blocks));
}

/// Mixtral-8x7B, aux-loss routing, 8 stages x 16 DP replicas: nearly all
/// of the wall time is token sampling inside DynamismEngine::step.
inline SessionWorkload moe_routing(std::uint64_t seed) {
  SessionWorkload w;
  w.make_model = [] {
    return dm::model::make_moe(dm::model::mixtral_8x7b_config(),
                               "mixtral-8x7b");
  };
  auto& c = w.cfg;
  c.pipeline_stages = 8;
  c.data_parallel = 16;
  c.micro_batch = 2;
  c.num_microbatches = 64;
  c.schedule = dm::pipeline::ScheduleKind::ZbH1;
  c.algorithm = dm::balance::Algorithm::Diffusion;
  c.balance_by = dm::balance::BalanceBy::Time;
  c.rebalance_interval = 1;
  c.sim_stride = 20;
  c.iterations = 200;
  c.seed = seed;
  w.make_engine = [seed, mbs = c.num_microbatches](
                      const dm::model::ModelDesc& m)
      -> std::unique_ptr<dm::dynamic::DynamismEngine> {
    dm::dynamic::MoeEngineConfig e;
    e.routing = dm::dynamic::MoeRouting::AuxLoss;
    e.tokens_per_microbatch = 512;
    e.num_microbatches = mbs;
    e.seed = seed;
    return std::make_unique<dm::dynamic::MoeEngine>(m, e);
  };
  return w;
}

/// 448 GPT blocks on 112 stages with sparse attention and Diffusion
/// rebalancing every window: DiffusionBalancer::balance dominates.
inline SessionWorkload deep_diffusion(std::uint64_t seed) {
  SessionWorkload w;
  w.make_model = [] { return deep_gpt(448); };
  auto& c = w.cfg;
  c.pipeline_stages = 112;
  c.data_parallel = 1;
  c.num_microbatches = 256;
  c.algorithm = dm::balance::Algorithm::Diffusion;
  c.rebalance_interval = 10;
  c.sim_stride = 10;
  c.iterations = 100;
  c.seed = seed;
  w.make_engine = [](const dm::model::ModelDesc& m)
      -> std::unique_ptr<dm::dynamic::DynamismEngine> {
    return std::make_unique<dm::dynamic::SparseAttnEngine>(
        m, dm::dynamic::SparseAttnEngineConfig{});
  };
  return w;
}

/// 1024 GPT blocks on 256 stages, early exit, Partition rebalancing every
/// window, transient stragglers, periodic checkpoints and elastic
/// evaluations: the pipeline layer (CostBuilder + simulate) dominates.
inline SessionWorkload deep_partition_faults(std::uint64_t seed) {
  SessionWorkload w;
  w.make_model = [] { return deep_gpt(1024); };
  auto& c = w.cfg;
  c.pipeline_stages = 256;
  c.data_parallel = 1;
  c.num_microbatches = 256;
  c.algorithm = dm::balance::Algorithm::Partition;
  c.balance_by = dm::balance::BalanceBy::Time;
  c.rebalance_interval = 10;
  c.sim_stride = 10;
  c.iterations = 1000;
  c.seed = seed;
  // Eight transient half-speed windows, each on a different worker.
  for (int i = 0; i < 8; ++i) {
    dm::fault::Slowdown s;
    s.worker = 16 + 32 * i;
    s.multiplier = 0.5;
    s.from_iter = 20 + 100 * i;
    s.until_iter = s.from_iter + 80;
    c.fault.slowdowns.push_back(s);
  }
  c.checkpoint_interval_iters = 50;
  c.elastic.enabled = true;
  c.elastic.interval = 100;
  c.elastic.min_workers = 128;
  c.elastic.payoff_window_iters = 10.0;
  w.make_engine = [](const dm::model::ModelDesc& m)
      -> std::unique_ptr<dm::dynamic::DynamismEngine> {
    return std::make_unique<dm::dynamic::EarlyExitEngine>(
        m, dm::dynamic::EarlyExitEngineConfig{});
  };
  return w;
}

inline SessionWorkload session_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "moe_routing") return moe_routing(seed);
  if (name == "deep_diffusion") return deep_diffusion(seed);
  return deep_partition_faults(seed);
}

/// Four phases on different maps (three P2P migrations), then a
/// checkpoint-coordinated shrink onto two workers and the expand back;
/// every phase trains 3 iterations.
inline ThreadedWorkload threaded_migrate(std::uint64_t seed) {
  using dm::pipeline::StageMap;
  ThreadedWorkload w;
  auto& c = w.cfg;
  c.workers = 4;
  c.num_layers = 16;
  c.hidden = 128;
  c.batch_rows = 16;
  c.microbatches = 8;
  c.apply_weight_update = false;
  c.transport = dm::comm::TransportKind::InProc;
  c.seed = seed;

  const auto phase = [](StageMap map, int iterations) {
    dm::runtime::PlanPhase p;
    p.map = std::move(map);
    p.iterations = iterations;
    return p;
  };
  constexpr int kPhaseIters = 3;
  w.plan.push_back(phase(StageMap::uniform(16, 4), kPhaseIters));
  w.plan.push_back(
      phase(StageMap::from_boundaries({0, 2, 6, 11, 16}), kPhaseIters));
  w.plan.push_back(
      phase(StageMap::from_boundaries({0, 6, 9, 12, 16}), kPhaseIters));
  w.plan.push_back(
      phase(StageMap::from_boundaries({0, 3, 8, 13, 16}), kPhaseIters));
  auto shrink =
      phase(StageMap::from_boundaries({0, 8, 16, 16, 16}), kPhaseIters);
  shrink.restart_active = std::vector<bool>{true, true, false, false};
  w.plan.push_back(std::move(shrink));
  auto expand = phase(StageMap::uniform(16, 4), kPhaseIters);
  expand.restart_active = std::vector<bool>{true, true, true, true};
  w.plan.push_back(std::move(expand));

  int total = 0;
  for (const auto& p : w.plan) total += p.iterations;
  w.reference.push_back(phase(StageMap::uniform(16, 4), total));
  return w;
}

}  // namespace perfbench
