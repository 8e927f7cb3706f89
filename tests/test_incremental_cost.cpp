// Differential suite for the incremental decision path (docs/COST_MODEL.md
// "Incremental recomputation").
//
// Every incremental surface has a naive reference twin, and
// the contract is *exact* equality — EXPECT_EQ on doubles, not EXPECT_NEAR:
// the cached path must produce the very bits the naive rescan produces, so
// no decision, bottleneck, priced cost, or telemetry byte can drift.  The
// suite drives thousands of randomized perturbations through both paths in
// lockstep (tests/diff_check.hpp) at every level of the stack:
//
//   MaxTree          vs std::max_element            (indexed-max stress)
//   stage_of         vs the linear boundary scan
//   plan_migration   vs the full O(L) diff
//   CostSurface      vs balance::evaluate_full_rescan per perturbation
//   Rebalancer       incremental vs rebalance_full_rescan, decisions and
//                    all priced numbers
//   CostBuilder      memoized layer pricing vs full re-evaluation
//   TrainingSession  golden-trace proof: a full session run with the
//                    incremental path ON emits byte-identical telemetry
//                    tables to the same run with it OFF
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "balance/incremental.hpp"
#include "balance/migration.hpp"
#include "balance/rebalancer.hpp"
#include "cost_oracles.hpp"
#include "diff_check.hpp"
#include "dynmo/dynmo.hpp"
#include "pipeline/cost_builder.hpp"
#include "pipeline/stage_map.hpp"

namespace dynmo {
namespace {

using balance::CostSurface;
using balance::MaxTree;
using pipeline::StageMap;

// ---------------------------------------------------------------------------
// MaxTree: randomized stress against the std::max_element oracle.

TEST(MaxTree, EmptyAndSingle) {
  MaxTree t;
  EXPECT_TRUE(t.empty());
  t.reset(std::vector<double>{7.5});
  EXPECT_EQ(t.max_value(), 7.5);
  EXPECT_EQ(t.argmax(), 0u);
  t.set(0, -3.0);
  EXPECT_EQ(t.max_value(), -3.0);
}

TEST(MaxTree, TiesResolveToLowestIndexLikeMaxElement) {
  const std::vector<double> v = {1.0, 5.0, 5.0, 2.0, 5.0};
  MaxTree t;
  t.reset(v);
  EXPECT_EQ(t.argmax(),
            static_cast<std::size_t>(
                std::max_element(v.begin(), v.end()) - v.begin()));
  EXPECT_EQ(t.argmax(), 1u);
}

TEST(MaxTree, RandomizedStressVsMaxElementOracle) {
  // 10k ops per seed, several seeds: point updates (with a small discrete
  // value pool so exact ties are frequent), removals modeled as -inf, and
  // occasional full rebuilds at a new size.  After every op the tree's O(1)
  // root must equal both its own full-rescan twin and an independent
  // std::max_element over a shadow vector.
  for (const std::uint64_t seed : {0x11u, 0x22u, 0x33u, 0x44u, 0x55u}) {
    std::mt19937_64 rng(seed);
    std::vector<double> shadow(1 + rng() % 257);
    for (auto& v : shadow) v = static_cast<double>(rng() % 97) * 0.125;
    MaxTree tree;
    tree.reset(shadow);
    for (int op = 0; op < 10'000; ++op) {
      const int kind = static_cast<int>(rng() % 10);
      if (kind < 8) {  // point update, ties likely
        const std::size_t i = rng() % shadow.size();
        const double v = static_cast<double>(rng() % 97) * 0.125;
        shadow[i] = v;
        tree.set(i, v);
      } else if (kind == 8) {  // remove: the stage drops out of the max
        const std::size_t i = rng() % shadow.size();
        shadow[i] = -std::numeric_limits<double>::infinity();
        tree.set(i, shadow[i]);
      } else {  // rebuild at a new size (insert/remove structure)
        shadow.assign(1 + rng() % 257, 0.0);
        for (auto& v : shadow) v = static_cast<double>(rng() % 97) * 0.125;
        tree.reset(shadow);
      }
      const auto oracle = std::max_element(shadow.begin(), shadow.end());
      ASSERT_EQ(tree.max_value(), *oracle) << "seed " << seed << " op " << op;
      ASSERT_EQ(tree.argmax(),
                static_cast<std::size_t>(oracle - shadow.begin()))
          << "seed " << seed << " op " << op;
      ASSERT_EQ(tree.max_value(), testing::max_value_full_rescan(tree));
      ASSERT_EQ(tree.argmax(), testing::argmax_full_rescan(tree));
      const std::size_t probe = rng() % shadow.size();
      ASSERT_EQ(tree.get(probe), shadow[probe]);
    }
  }
}

// ---------------------------------------------------------------------------
// StageMap::stage_of: binary search vs the linear scan, including
// duplicate boundaries (empty stages).

StageMap random_map(std::mt19937_64& rng, std::size_t layers, int stages) {
  std::vector<std::size_t> b;
  b.push_back(0);
  for (int s = 1; s < stages; ++s) b.push_back(rng() % (layers + 1));
  b.push_back(layers);
  std::sort(b.begin(), b.end());
  return StageMap::from_boundaries(std::move(b));
}

TEST(StageOf, BinarySearchMatchesLinearScan) {
  std::mt19937_64 rng(0xabcd);
  for (int iter = 0; iter < 500; ++iter) {
    const std::size_t layers = 1 + rng() % 64;
    const int stages = 1 + static_cast<int>(rng() % 12);
    const StageMap map = random_map(rng, layers, stages);
    for (std::size_t l = 0; l < layers; ++l) {
      ASSERT_EQ(map.stage_of(l), testing::stage_of_full_rescan(map, l))
          << map.to_string() << " layer " << l;
    }
  }
}

// ---------------------------------------------------------------------------
// plan_migration: boundary-difference intervals vs the full O(L) diff.

TEST(PlanMigration, IntervalScanMatchesFullDiff) {
  std::mt19937_64 rng(0x5eed);
  for (int iter = 0; iter < 2'000; ++iter) {
    const std::size_t layers = 1 + rng() % 96;
    const int stages = 1 + static_cast<int>(rng() % 16);
    const StageMap before = random_map(rng, layers, stages);
    // Same stage count usually (the incremental interval path), a
    // different count sometimes (the explicit fallback).
    const int after_stages =
        (rng() % 8 == 0) ? 1 + static_cast<int>(rng() % 16) : stages;
    const StageMap after = random_map(rng, layers, after_stages);
    std::vector<double> bytes(layers);
    for (auto& x : bytes) x = static_cast<double>(rng() % 1000) * 1e6;
    const auto inc = balance::plan_migration(before, after, bytes);
    const auto ref = balance::plan_migration_full_rescan(before, after, bytes);
    ASSERT_EQ(inc.transfers.size(), ref.transfers.size())
        << before.to_string() << " -> " << after.to_string();
    for (std::size_t i = 0; i < ref.transfers.size(); ++i) {
      ASSERT_EQ(inc.transfers[i].layer, ref.transfers[i].layer);
      ASSERT_EQ(inc.transfers[i].src_stage, ref.transfers[i].src_stage);
      ASSERT_EQ(inc.transfers[i].dst_stage, ref.transfers[i].dst_stage);
      ASSERT_EQ(inc.transfers[i].bytes, ref.transfers[i].bytes);
    }
  }
}

// ---------------------------------------------------------------------------
// CostSurface: lockstep perturbation stream via the diff_check harness.

std::string dump_surface(const CostSurface& s) {
  std::ostringstream os;
  os << "  map: " << s.map().to_string() << "\n  sum_w:";
  for (double v : s.stage_loads_w()) os << " " << v;
  os << "\n  sum_t:";
  for (double v : s.stage_loads_t()) os << " " << v;
  os << "\n";
  return os.str();
}

// Jiggle a few internal boundaries of `map` within their legal range.
StageMap jiggle(std::mt19937_64& rng, const StageMap& map) {
  std::vector<std::size_t> b = map.boundaries();
  const int moves = 1 + static_cast<int>(rng() % 3);
  for (int m = 0; m < moves; ++m) {
    if (b.size() <= 2) break;
    const std::size_t i = 1 + rng() % (b.size() - 2);
    const std::size_t lo = b[i - 1];
    const std::size_t hi = b[i + 1];
    b[i] = lo + rng() % (hi - lo + 1);
  }
  return StageMap::from_boundaries(std::move(b));
}

TEST(CostSurface, LockstepDifferentialUnderRandomPerturbations) {
  // Thousands of randomized perturbations per seed: profile mutations
  // (sync), capacity changes (full reset), stage-count changes ("topology"
  // reshapes), and candidate evaluations with random commit/rollback.
  // After every step the cached bottlenecks must equal the naive
  // evaluator's bit-for-bit, and evaluate() must agree with
  // balance::evaluate_full_rescan() on every field.
  for (const std::uint64_t seed : {0xa1u, 0xb2u, 0xc3u}) {
    const std::size_t layers = 48;
    std::vector<double> w(layers), t(layers), m(layers);
    std::mt19937_64 init(seed ^ 0xfeed);
    for (std::size_t l = 0; l < layers; ++l) {
      w[l] = 0.1 + static_cast<double>(init() % 100) * 0.01;
      t[l] = w[l];
      m[l] = static_cast<double>(init() % 64) * 1e6;
    }
    std::vector<double> caps;  // start uniform
    StageMap cur = StageMap::uniform(layers, 8);
    CostSurface surf;
    surf.reset(cur, w, t, m, caps);
    std::string last_eval_diff;  // set by perturb, read by compare

    const auto perturb = [&](std::mt19937_64& rng, int) {
      last_eval_diff.clear();
      switch (rng() % 5) {
        case 0: {  // mutate a handful of layers, re-sync
          const int n = 1 + static_cast<int>(rng() % 4);
          for (int i = 0; i < n; ++i) {
            const std::size_t l = rng() % layers;
            w[l] = 0.1 + static_cast<double>(rng() % 100) * 0.01;
            t[l] = w[l] * (0.5 + static_cast<double>(rng() % 10) * 0.1);
          }
          surf.sync(cur, w, t, m, caps);
          break;
        }
        case 1: {  // capacity perturbation (forces the full-reset arm)
          if (rng() % 2 == 0) {
            caps.assign(static_cast<std::size_t>(cur.num_stages()), 1.0);
            for (auto& c : caps)
              c = 0.25 + static_cast<double>(rng() % 8) * 0.25;
          } else {
            caps.clear();
          }
          surf.sync(cur, w, t, m, caps);
          break;
        }
        case 2: {  // topology reshape: new stage count over the same layers
          const int stages = 2 + static_cast<int>(rng() % 14);
          cur = StageMap::uniform(layers, stages);
          if (!caps.empty()) {
            caps.assign(static_cast<std::size_t>(stages), 1.0);
          }
          surf.sync(cur, w, t, m, caps);
          break;
        }
        default: {  // candidate evaluation + random commit/rollback
          const StageMap cand = jiggle(rng, cur);
          const bool adopt = rng() % 2 == 0;
          balance::SurfaceEval inc = surf.evaluate(cand);
          const balance::SurfaceEval ref =
              balance::evaluate_full_rescan(cur, cand, w, t, m, caps);
          std::ostringstream os;
          if (inc.norm_w_before != ref.norm_w_before)
            os << "norm_w_before " << inc.norm_w_before << " vs "
               << ref.norm_w_before << "; ";
          if (inc.norm_w_after != ref.norm_w_after)
            os << "norm_w_after " << inc.norm_w_after << " vs "
               << ref.norm_w_after << "; ";
          if (inc.norm_t_before != ref.norm_t_before)
            os << "norm_t_before " << inc.norm_t_before << " vs "
               << ref.norm_t_before << "; ";
          if (inc.norm_t_after != ref.norm_t_after)
            os << "norm_t_after " << inc.norm_t_after << " vs "
               << ref.norm_t_after << "; ";
          if (inc.plan.transfers.size() != ref.plan.transfers.size()) {
            os << "plan size " << inc.plan.transfers.size() << " vs "
               << ref.plan.transfers.size() << "; ";
          } else {
            for (std::size_t i = 0; i < ref.plan.transfers.size(); ++i) {
              const auto& a = inc.plan.transfers[i];
              const auto& b = ref.plan.transfers[i];
              if (a.layer != b.layer || a.src_stage != b.src_stage ||
                  a.dst_stage != b.dst_stage || a.bytes != b.bytes) {
                os << "plan[" << i << "] differs; ";
                break;
              }
            }
          }
          last_eval_diff = os.str();
          if (adopt) {
            surf.commit();
            cur = cand;
          } else {
            surf.rollback();
          }
          break;
        }
      }
    };
    const auto compare = [&](int) -> std::optional<std::string> {
      if (!last_eval_diff.empty()) return "evaluate(): " + last_eval_diff;
      const balance::SurfaceEval ref =
          balance::evaluate_full_rescan(cur, cur, w, t, m, caps);
      if (surf.bottleneck_w() != ref.norm_w_before) {
        std::ostringstream os;
        os << "bottleneck_w " << surf.bottleneck_w() << " != rescan "
           << ref.norm_w_before;
        return os.str();
      }
      if (surf.bottleneck_t() != ref.norm_t_before) {
        std::ostringstream os;
        os << "bottleneck_t " << surf.bottleneck_t() << " != rescan "
           << ref.norm_t_before;
        return os.str();
      }
      // The cached per-stage sums must be the exact stage_loads values.
      const auto ref_w = cur.stage_loads(w);
      const auto got_w = surf.stage_loads_w();
      for (std::size_t s = 0; s < ref_w.size(); ++s) {
        if (got_w[s] != ref_w[s]) {
          std::ostringstream os;
          os << "sum_w[" << s << "] " << got_w[s] << " != " << ref_w[s];
          return os.str();
        }
      }
      return std::nullopt;
    };
    const auto r = testing::diff_check(seed, 1'000, perturb, compare,
                                       [&] { return dump_surface(surf); });
    EXPECT_TRUE(r.ok) << r.report;
  }
}

// ---------------------------------------------------------------------------
// Rebalancer: the incremental dispatch vs the full-rescan reference on the
// same evolving profile stream — every decision and every priced number.

TEST(RebalancerDifferential, IncrementalMatchesFullRescanOverStream) {
  for (const auto algorithm :
       {balance::Algorithm::Partition, balance::Algorithm::Diffusion}) {
    for (const bool heterogeneous : {false, true}) {
      balance::RebalanceConfig cfg;
      cfg.algorithm = algorithm;
      cfg.by = balance::BalanceBy::Time;
      cfg.min_bottleneck_gain = 0.02;
      cfg.payoff_window_iters = 10.0;
      const int stages = 8;
      if (heterogeneous) {
        cfg.capacities.assign(stages, 1.0);
        for (int s = 0; s < stages; s += 2) {
          cfg.capacities[static_cast<std::size_t>(s)] = 0.5;
        }
        // Interleave the stages over the default cost model's two 4-GPU
        // nodes, so neighbouring stages sit on different nodes and the
        // placement moves every migration price.
        cfg.stage_to_rank.resize(stages);
        for (int s = 0; s < stages; ++s) {
          cfg.stage_to_rank[static_cast<std::size_t>(s)] =
              (s % 2) * (stages / 2) + s / 2;
        }
      }
      cfg.incremental = true;
      const balance::Rebalancer inc(cfg, comm::CostModel{});
      cfg.incremental = false;
      const balance::Rebalancer ref(cfg, comm::CostModel{});

      std::mt19937_64 rng(0xd1f0 + (heterogeneous ? 1 : 0) +
                          (algorithm == balance::Algorithm::Diffusion ? 2
                                                                      : 0));
      const std::size_t layers = 32;
      balance::LayerProfile prof;
      prof.time_s.assign(layers, 1.0);
      prof.memory_bytes.assign(layers, 1e6);
      prof.params.assign(layers, 100.0);
      StageMap cur_inc = StageMap::uniform(layers, stages);
      StageMap cur_ref = cur_inc;
      int migrations = 0;  // accepted decisions that moved a layer
      for (int iter = 0; iter < 60; ++iter) {
        // Random-walk the profile: a few layers drift each step, like a
        // dynamism engine shifting load.
        const int n = 1 + static_cast<int>(rng() % 5);
        for (int i = 0; i < n; ++i) {
          const std::size_t l = rng() % layers;
          prof.time_s[l] = 0.1 + static_cast<double>(rng() % 200) * 0.01;
          prof.memory_bytes[l] = static_cast<double>(1 + rng() % 64) * 1e6;
        }
        const auto a = inc.rebalance(prof, cur_inc);
        const auto b = ref.rebalance_full_rescan(prof, cur_ref);
        ASSERT_EQ(a.map, b.map) << "iter " << iter;
        ASSERT_EQ(a.decision, b.decision) << "iter " << iter;
        ASSERT_EQ(a.imbalance_before, b.imbalance_before) << "iter " << iter;
        ASSERT_EQ(a.imbalance_after, b.imbalance_after) << "iter " << iter;
        ASSERT_EQ(a.projected_gain_s, b.projected_gain_s) << "iter " << iter;
        ASSERT_EQ(a.exposed_cost_s, b.exposed_cost_s) << "iter " << iter;
        ASSERT_EQ(a.candidate_bytes, b.candidate_bytes) << "iter " << iter;
        ASSERT_EQ(a.overhead.profile_s, b.overhead.profile_s);
        ASSERT_EQ(a.overhead.migrate_s, b.overhead.migrate_s);
        // Each migration is priced once: the charged time is the plan's
        // own estimate over the placement, and nothing when rejected.
        for (const auto* o : {&a, &b}) {
          ASSERT_EQ(o->overhead.migrate_s,
                    o->decision == balance::MapDecision::Accepted
                        ? o->migration.estimated_time_s(comm::CostModel{},
                                                        cfg.stage_to_rank)
                        : 0.0)
              << "iter " << iter;
        }
        if (!a.migration.empty()) ++migrations;
        ASSERT_EQ(a.overhead.decide_s, b.overhead.decide_s);
        ASSERT_EQ(a.migration.transfers.size(), b.migration.transfers.size());
        for (std::size_t i = 0; i < a.migration.transfers.size(); ++i) {
          ASSERT_EQ(a.migration.transfers[i].layer,
                    b.migration.transfers[i].layer);
          ASSERT_EQ(a.migration.transfers[i].src_stage,
                    b.migration.transfers[i].src_stage);
          ASSERT_EQ(a.migration.transfers[i].dst_stage,
                    b.migration.transfers[i].dst_stage);
          ASSERT_EQ(a.migration.transfers[i].bytes,
                    b.migration.transfers[i].bytes);
        }
        cur_inc = a.map;
        cur_ref = b.map;
      }
      EXPECT_GT(migrations, 0) << "the stream never priced a migration";
    }
  }
}

// ---------------------------------------------------------------------------
// CostBuilder: memoized layer pricing vs full re-evaluation under random
// state churn.

TEST(CostBuilderMemo, MatchesFullRescanUnderStateChurn) {
  const auto model = model::make_gpt({.num_blocks = 12,
                                      .include_embedding = false,
                                      .include_lm_head = false});
  const model::LayerCostModel ref;
  const pipeline::CostBuilder builder(model, ref, comm::CostModel{}, {});
  const auto& cfg = builder.config();
  std::vector<model::LayerState> states(model.num_layers());
  std::mt19937_64 rng(0xcafe);
  StageMap map = StageMap::uniform(model.num_layers(), 4);
  for (int iter = 0; iter < 200; ++iter) {
    // Perturb a few layers' dynamic state; most layers are cache hits.
    const int n = static_cast<int>(rng() % 3);
    for (int i = 0; i < n; ++i) {
      auto& st = states[rng() % states.size()];
      st.weight_density = 0.25 + static_cast<double>(rng() % 4) * 0.25;
      st.frozen = rng() % 4 == 0;
      st.token_fraction = 0.5 + static_cast<double>(rng() % 3) * 0.25;
      st.compute_scale = 0.5 + static_cast<double>(rng() % 4) * 0.5;
    }
    if (rng() % 8 == 0) {  // residency changes with the map
      map = random_map(rng, model.num_layers(),
                       2 + static_cast<int>(rng() % 6));
    }
    const auto t_inc = builder.layer_times(states);
    const auto t_ref =
        testing::layer_times_full_rescan(model, ref, cfg.micro_batch, states);
    ASSERT_EQ(t_inc.size(), t_ref.size());
    for (std::size_t l = 0; l < t_ref.size(); ++l) {
      ASSERT_EQ(t_inc[l].forward_s, t_ref[l].forward_s) << "layer " << l;
      ASSERT_EQ(t_inc[l].backward_input_s, t_ref[l].backward_input_s);
      ASSERT_EQ(t_inc[l].backward_weight_s, t_ref[l].backward_weight_s);
    }
    const auto m_inc = builder.layer_memory_bytes(states, map);
    const auto m_ref = testing::layer_memory_bytes_full_rescan(
        model, ref, cfg.micro_batch, cfg.num_microbatches, states, map);
    ASSERT_EQ(m_inc, m_ref) << "iter " << iter;
  }
}

// ---------------------------------------------------------------------------
// Session-level golden proof: identical telemetry bytes with the
// incremental path on and off.

std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(SessionGolden, IncrementalRunEmitsByteIdenticalTelemetry) {
  namespace fs = std::filesystem;
  const fs::path base =
      fs::path(::testing::TempDir()) / "incremental_golden";
  fs::remove_all(base);
  const auto run = [&](bool incremental, const fs::path& dir) {
    Options opt;
    opt.session.pipeline_stages = 8;
    opt.session.micro_batch = 2;
    opt.session.num_microbatches = 16;
    opt.session.iterations = 200;
    opt.session.sim_stride = 10;
    opt.session.rebalance_interval = 1;
    opt.session.mode = runtime::BalancingMode::DynMo;
    opt.session.algorithm = balance::Algorithm::Diffusion;
    opt.session.payoff_window_iters = 20.0;
    opt.session.telemetry.dir = dir.string();
    opt.session.incremental_decisions = incremental;
    Session session(model::make_gpt({.num_blocks = 16,
                                     .include_embedding = false,
                                     .include_lm_head = false}),
                    UseCase::SparseAttention, opt);
    (void)session.run();
  };
  run(true, base / "incremental");
  run(false, base / "rescan");

  std::size_t compared = 0;
  for (const auto& e : fs::directory_iterator(base / "incremental")) {
    const auto name = e.path().filename();
    const auto twin = base / "rescan" / name;
    ASSERT_TRUE(fs::exists(twin)) << name << " missing from the rescan run";
    EXPECT_EQ(slurp(e.path()), slurp(twin))
        << name << " differs between decision paths";
    ++compared;
  }
  EXPECT_GT(compared, 2u);  // catalog + at least some tables
  fs::remove_all(base);
}

}  // namespace
}  // namespace dynmo
