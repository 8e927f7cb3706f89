// Telemetry round-trip: TraceWriter -> TraceReader, session traces, the
// bit-for-bit replay contract (docs/TELEMETRY.md), and the observer-effect
// guarantee that a disabled trace changes nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <string>
#include <type_traits>
#include <vector>

#include "balance/replay.hpp"
#include "comm/cost_model.hpp"
#include "core/error.hpp"
#include "dynamic/dynamism.hpp"
#include "dynmo/dynmo.hpp"
#include "model/layer.hpp"
#include "repack/elastic.hpp"
#include "runtime/session.hpp"
#include "runtime/threaded.hpp"
#include "telemetry/json.hpp"
#include "telemetry/trace_reader.hpp"
#include "telemetry/trace_writer.hpp"

namespace dynmo {
namespace {

std::string trace_dir(const char* name) {
  return ::testing::TempDir() + "dynmo_trace_" + name;
}

// ------------------------------------------------------------ writer/reader

TEST(Telemetry, WriterReaderRoundTrip) {
  const auto dir = trace_dir("roundtrip");

  telemetry::RunInfo run;
  run.producer = "session";
  run.iterations = 100;
  run.sim_stride = 2;
  run.rebalance_interval = 1;
  run.pipeline_stages = 4;
  run.data_parallel = 2;
  run.seed = 0xfeedULL;
  run.mode = "DynMo";
  run.algorithm = "diffusion";
  run.balance_by = "time";
  run.mem_capacity = 80.0 * (1ull << 30);
  run.payoff_window_iters = 20.0;
  run.stage_to_rank = {0, 2, 4, 6};
  run.capacities = {1.0, 1.0, 0.5, 0.5};
  run.layer_params = {1e6, 2e6};

  telemetry::IterationRow it;
  it.iter = 42;
  it.time_s = 1.0 / 3.0;  // not exactly representable in short decimal
  it.event_s = 1e-17;
  it.bottleneck_s = 0.1;
  it.idleness = 0.25;
  it.bubble_ratio = 0.0625;
  it.active_workers = 4;
  it.compute_fraction = 0.9;
  it.rebalanced = true;
  it.stall_s = 6.02214076e23;

  telemetry::StageLoadRow sl;
  sl.iter = 42;
  sl.stage = 3;
  sl.rank = 6;
  sl.layer_begin = 5;
  sl.layer_end = 8;
  sl.load_s = 0.3;
  sl.mem_bytes = 1.5e9;
  sl.layer_s = {0.1, 1.0 / 7.0, -0.0};
  sl.layer_mem = {5e8, 5e8, 5e8};

  telemetry::RebalanceDecisionRow rd;
  rd.iter = 42;
  rd.trigger = "periodic";
  rd.algorithm = "diff\"usion\\n";  // exercises JSON string escaping
  rd.balance_by = "time";
  rd.decision = "accepted";
  rd.projected_gain_s = 0.02;
  rd.exposed_cost_s = 0.005;
  rd.candidate_bytes = 1e9;
  rd.migrated_bytes = 1e9;
  rd.migrated_layers = 2;
  rd.imbalance_before = 1.4;
  rd.imbalance_after = 1.05;
  rd.decide_s = 3.1e-4;

  telemetry::MigrationRow mg;
  mg.iter = 42;
  mg.trigger = "periodic";
  mg.layer = 7;
  mg.from_stage = 3;
  mg.to_stage = 2;
  mg.bytes = 5e8;

  telemetry::ElasticTransitionRow et;
  et.iter = 500;
  et.kind = "shrink";
  et.accepted = true;
  et.workers_before = 8;
  et.workers_after = 5;
  et.stall_s = 2.75;
  et.alpha_s = 0.5;
  et.bootstrap_s = 0.25;
  et.ckpt_write_s = 1.0;
  et.ckpt_read_s = 1.0;
  et.projected_gain_s = 30.0;
  et.migrated_bytes = 0.0;

  telemetry::FaultEventRow fe;
  fe.iter = 450;
  fe.kind = "worker_loss";
  fe.worker = 3;
  fe.multiplier = 1.0;
  fe.workers_before = 8;
  fe.workers_after = 7;
  fe.stall_s = 4.25;
  fe.alpha_s = 0.5;
  fe.bootstrap_s = 0.25;
  fe.ckpt_write_s = 1.0;
  fe.ckpt_read_s = 1.0;
  fe.lost_work_s = 1.5;
  fe.lost_iters = 50;

  telemetry::FleetDecisionRow fd;
  fd.time_s = 123.5;
  fd.job = "job-a";
  fd.kind = "preempt";
  fd.accepted = true;
  fd.priority = 2;
  fd.gpus_before = 8;
  fd.gpus_after = 5;
  fd.pool_free_before = 0;
  fd.pool_free_after = 3;
  fd.fair_share = 5.25;
  fd.projected_gain_gpu_s = 900.0;
  fd.exposed_cost_gpu_s = 120.0;
  fd.victim = "job-b";

  {
    telemetry::TelemetryConfig cfg;
    cfg.dir = dir;
    telemetry::TraceWriter writer(cfg, run);
    writer.write(it);
    writer.write(sl);
    writer.write(rd);
    writer.write(mg);
    writer.write(et);
    writer.write(fe);
    writer.write(fd);
    writer.finalize();
  }

  telemetry::TraceReader reader(dir);
  EXPECT_EQ(reader.catalog().format, telemetry::kTraceFormat);
  EXPECT_EQ(reader.catalog().schema_version, telemetry::kSchemaVersion);
  EXPECT_EQ(reader.catalog().tables.size(), 7u);
  for (const auto& t : reader.catalog().tables) EXPECT_EQ(t.rows, 1) << t.name;

  const auto& r = reader.run();
  EXPECT_EQ(r.producer, run.producer);
  EXPECT_EQ(r.iterations, run.iterations);
  EXPECT_EQ(r.sim_stride, run.sim_stride);
  EXPECT_EQ(r.seed, run.seed);
  EXPECT_EQ(r.mode, run.mode);
  EXPECT_EQ(r.stage_to_rank, run.stage_to_rank);
  EXPECT_EQ(r.capacities, run.capacities);
  EXPECT_EQ(r.layer_params, run.layer_params);
  EXPECT_EQ(r.mem_capacity, run.mem_capacity);
  EXPECT_EQ(r.payoff_window_iters, run.payoff_window_iters);

  // Typed rows survive the JSONL round trip exactly, doubles included.
  const auto expect_one = [&reader](const auto& written) {
    const auto rows = reader.read<std::decay_t<decltype(written)>>();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0], written);
  };
  expect_one(it);
  expect_one(sl);
  expect_one(rd);
  expect_one(mg);
  expect_one(et);
  expect_one(fe);
  expect_one(fd);
}

TEST(Telemetry, ReaderRejectsMissingDirectory) {
  EXPECT_THROW(telemetry::TraceReader("/nonexistent/dynmo_trace"), Error);
}

TEST(Telemetry, JsonNestingIsBoundedNotRecursedWithoutLimit) {
  using telemetry::JsonValue;
  using telemetry::kMaxJsonDepth;
  EXPECT_THROW((void)JsonValue::parse(std::string(1'000'000, '[')), Error);
  EXPECT_THROW((void)JsonValue::parse(std::string(1'000'000, '{')), Error);

  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_NO_THROW((void)JsonValue::parse(nested(kMaxJsonDepth)));
  EXPECT_THROW((void)JsonValue::parse(nested(kMaxJsonDepth + 1)), Error);
  // Depth counts open containers, not containers seen: siblings are free.
  std::string wide = "[";
  for (int i = 0; i < 4 * kMaxJsonDepth; ++i) wide += "[],{},";
  wide += "[]]";
  EXPECT_NO_THROW((void)JsonValue::parse(wide));
}

TEST(Telemetry, ReaderRowErrorsNameTableLineAndColumn) {
  const auto dir = trace_dir("row_errors");
  telemetry::FaultEventRow fe;
  fe.iter = 450;
  fe.kind = "worker_loss";
  fe.stall_s = 4.25;
  {
    telemetry::TelemetryConfig cfg;
    cfg.dir = dir;
    telemetry::TraceWriter writer(cfg, telemetry::RunInfo{});
    writer.write(fe);
  }
  const std::string path = dir + "/fault_events.jsonl";
  std::string good;
  {
    std::ifstream in(path);
    std::getline(in, good);
  }
  const auto replaced = [&good](const std::string& from,
                                const std::string& to) {
    std::string line = good;
    const auto at = line.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return line.replace(at, from.size(), to);
  };
  struct Case {
    std::string second_line;
    const char* column;  ///< nullptr: a row-level error
  };
  const Case cases[] = {
      {replaced(",\"stall_s\":4.25", ""), "stall_s"},
      {replaced("\"iter\":450", "\"iter\":1.5"), "iter"},
      {replaced("\"_v\":1", "\"_v\":2"), nullptr},
  };
  for (const Case& c : cases) {
    std::ofstream(path) << good << "\n" << c.second_line << "\n";
    telemetry::TraceReader reader(dir);
    try {
      (void)reader.read<telemetry::FaultEventRow>();
      ADD_FAILURE() << "accepted: " << c.second_line;
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("fault_events:2"), std::string::npos) << what;
      if (c.column != nullptr) {
        EXPECT_NE(what.find(std::string("column '") + c.column + "'"),
                  std::string::npos)
            << what;
      }
    }
  }
}

// ------------------------------------------------------------ session trace

Options traced_options(const std::string& dir) {
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
  opt.session.telemetry.dir = dir;
  return opt;
}

model::ModelDesc traced_model() {
  return model::make_gpt({.num_blocks = 16,
                          .include_embedding = false,
                          .include_lm_head = false});
}

TEST(Telemetry, SessionTraceMatchesCatalog) {
  const auto dir = trace_dir("session");
  const auto opt = traced_options(dir);
  Session session(traced_model(), UseCase::SparseAttention, opt);
  const auto result = session.run();
  EXPECT_GT(result.tokens_per_sec, 0.0);

  telemetry::TraceReader reader(dir);
  EXPECT_EQ(reader.run().producer, "session");
  EXPECT_EQ(reader.run().iterations, 400);
  EXPECT_EQ(reader.run().pipeline_stages, 8);
  EXPECT_EQ(reader.run().rebalance_interval, 1);

  // 400 iterations at stride 10 -> 40 simulated frames.
  const auto iterations = reader.read<telemetry::IterationRow>();
  const auto stage_loads = reader.read<telemetry::StageLoadRow>();
  ASSERT_EQ(iterations.size(), 40u);
  EXPECT_EQ(stage_loads.size(), 40u * 8u);

  // Catalog row counts agree with what the files actually hold.
  for (const auto& t : reader.catalog().tables) {
    if (t.name == "iterations") EXPECT_EQ(t.rows, 40);
    if (t.name == "stage_loads") EXPECT_EQ(t.rows, 40 * 8);
    if (t.name == "rebalance_decisions") {
      EXPECT_EQ(t.rows,
                static_cast<std::int64_t>(
                    reader.read<telemetry::RebalanceDecisionRow>().size()));
    }
  }

  // Every frame's stage rows tile the layer range contiguously.
  for (std::size_t f = 0; f < 40; ++f) {
    std::int64_t next = 0;
    for (std::size_t s = 0; s < 8; ++s) {
      const auto& row = stage_loads[f * 8 + s];
      EXPECT_EQ(row.iter, iterations[f].iter);
      EXPECT_EQ(row.stage, static_cast<std::int64_t>(s));
      EXPECT_EQ(row.layer_begin, next);
      next = row.layer_end;
      EXPECT_EQ(row.layer_s.size(),
                static_cast<std::size_t>(row.layer_end - row.layer_begin));
    }
    EXPECT_EQ(next, 16);  // all layers covered
  }

  // Every-iteration cadence: each simulated frame is a rebalance point.
  for (const auto& row : iterations) EXPECT_TRUE(row.rebalanced);
  EXPECT_EQ(reader.read<telemetry::RebalanceDecisionRow>().size(),
            static_cast<std::size_t>(result.rebalance_count));
}

TEST(Telemetry, ReplayReproducesSessionBitForBit) {
  const auto dir = trace_dir("replay");
  Session session(traced_model(), UseCase::SparseAttention,
                  traced_options(dir));
  const auto recorded = session.run();

  telemetry::TraceReader reader(dir);
  const comm::CostModel net{};
  const auto loads = reader.replayed_loads();
  const auto replayed = balance::replay(loads, reader.replay_config(), net);

  const auto iterations = reader.read<telemetry::IterationRow>();
  ASSERT_EQ(replayed.bottleneck_s.size(), iterations.size());
  for (std::size_t i = 0; i < iterations.size(); ++i) {
    // Exact double equality: the determinism contract extended to traces.
    EXPECT_EQ(replayed.bottleneck_s[i], iterations[i].bottleneck_s)
        << "frame " << i << " (iter " << iterations[i].iter << ")";
  }
  EXPECT_EQ(replayed.maps_accepted, recorded.maps_accepted);
  EXPECT_EQ(replayed.maps_rejected_payoff, recorded.maps_rejected_payoff);
}

TEST(Telemetry, DifferentConfigReplayAnswersWhatIf) {
  const auto dir = trace_dir("whatif");
  Session session(traced_model(), UseCase::SparseAttention,
                  traced_options(dir));
  (void)session.run();

  telemetry::TraceReader reader(dir);
  const comm::CostModel net{};
  const auto loads = reader.replayed_loads();
  const auto base = balance::replay(loads, reader.replay_config(), net);

  // Static-map counterfactual: same history, never rebalance.
  auto static_cfg = reader.replay_config();
  static_cfg.rebalance_interval = 0;
  const auto static_run = balance::replay(loads, static_cfg, net);
  EXPECT_EQ(static_run.rebalance_count, 0);
  EXPECT_EQ(static_run.maps_accepted, 0);
  EXPECT_EQ(static_run.migration_bytes, 0.0);
  ASSERT_EQ(static_run.bottleneck_s.size(), base.bottleneck_s.size());
  if (base.maps_accepted > 0) {
    // The recorded run moved layers for a reason: trajectories diverge.
    EXPECT_NE(static_run.total_bottleneck_s, base.total_bottleneck_s);
  }

  // Partition counterfactual on the same history stays well-formed.
  auto part_cfg = reader.replay_config();
  part_cfg.rebalance.algorithm = balance::Algorithm::Partition;
  const auto part = balance::replay(loads, part_cfg, net);
  EXPECT_EQ(part.bottleneck_s.size(), base.bottleneck_s.size());
  EXPECT_GT(part.total_bottleneck_s, 0.0);
  EXPECT_GT(part.rebalance_count, 0);
}

TEST(Telemetry, DisabledTelemetryDoesNotPerturbResults) {
  const auto dir = trace_dir("observer");
  auto on = traced_options(dir);
  auto off = on;
  off.session.telemetry.dir.clear();

  Session with_trace(traced_model(), UseCase::SparseAttention, on);
  const auto a = with_trace.run();
  Session without_trace(traced_model(), UseCase::SparseAttention, off);
  const auto b = without_trace.run();

  // Bit-identical results either way: recording is pure observation.
  EXPECT_EQ(a.total_time_s, b.total_time_s);
  EXPECT_TRUE(a == b);
}

TEST(Telemetry, PerLayerOffReplayThrows) {
  const auto dir = trace_dir("nolayers");
  auto opt = traced_options(dir);
  opt.session.telemetry.per_layer = false;
  opt.session.iterations = 100;
  Session session(traced_model(), UseCase::SparseAttention, opt);
  (void)session.run();

  telemetry::TraceReader reader(dir);
  // Stage totals are still there...
  const auto stage_loads = reader.read<telemetry::StageLoadRow>();
  ASSERT_FALSE(stage_loads.empty());
  EXPECT_TRUE(stage_loads[0].layer_s.empty());
  // ...but replay needs the per-layer arrays.
  EXPECT_THROW((void)reader.replayed_loads(), Error);
}

// ----------------------------------------------------------- threaded trace

TEST(Telemetry, ThreadedRuntimeRecordsTrace) {
  const auto dir = trace_dir("threaded");
  runtime::ThreadedConfig cfg;
  cfg.workers = 4;
  cfg.num_layers = 8;
  cfg.hidden = 16;
  cfg.batch_rows = 3;
  cfg.microbatches = 4;
  cfg.telemetry.dir = dir;

  runtime::PlanPhase p1, p2;
  p1.map = pipeline::StageMap::uniform(8, 4);  // {0,2,4,6,8}
  p1.iterations = 3;
  p2.map = pipeline::StageMap::from_boundaries({0, 3, 5, 6, 8});
  p2.iterations = 2;

  runtime::ThreadedPipeline pipe(cfg);
  const auto report = pipe.run({p1, p2});
  EXPECT_EQ(report.iterations_run, 5);

  telemetry::TraceReader reader(dir);
  EXPECT_EQ(reader.run().producer, "threaded");
  EXPECT_EQ(reader.run().iterations, 5);
  EXPECT_EQ(reader.run().pipeline_stages, 4);

  const auto iterations = reader.read<telemetry::IterationRow>();
  ASSERT_EQ(iterations.size(), 5u);
  for (const auto& row : iterations) {
    EXPECT_GT(row.time_s, 0.0);  // measured wall-clock
    EXPECT_EQ(row.active_workers, 4);
  }

  // uniform{0,2,4,6,8} -> {0,3,5,6,8} re-homes layers 2 and 4 only.
  const auto migrations = reader.read<telemetry::MigrationRow>();
  ASSERT_EQ(migrations.size(), 2u);
  std::vector<std::int64_t> moved;  // senders race: order is thread order
  for (const auto& m : migrations) {
    EXPECT_EQ(m.trigger, "phase");
    EXPECT_GT(m.bytes, 0.0);
    EXPECT_NE(m.from_stage, m.to_stage);
    moved.push_back(m.layer);
  }
  std::sort(moved.begin(), moved.end());
  EXPECT_EQ(moved, (std::vector<std::int64_t>{2, 4}));
}

// ------------------------------------------------------- elastic transitions

/// Same spike shape as tests/test_elastic.cpp: full depth, a concentrated
/// lull, full depth again — drives one shrink and one expand.
class TelemetrySpikeEngine : public dynamic::DynamismEngine {
 public:
  TelemetrySpikeEngine(std::int64_t lull_begin, std::int64_t lull_end,
                       std::size_t heavy_layers)
      : begin_(lull_begin), end_(lull_end), heavy_(heavy_layers) {}

  std::string name() const override { return "telemetry-spike"; }
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
  std::int64_t recommended_rebalance_interval() const override { return 100; }

 private:
  std::int64_t begin_, end_;
  std::size_t heavy_;
};

TEST(Telemetry, ElasticSessionRecordsTransitions) {
  const auto dir = trace_dir("elastic");
  runtime::SessionConfig cfg;
  cfg.pipeline_stages = 8;
  cfg.micro_batch = 2;
  cfg.num_microbatches = 16;
  cfg.iterations = 3000;
  cfg.sim_stride = 10;
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
  cfg.telemetry.dir = dir;

  const auto m = model::make_gpt({.num_blocks = 24,
                                  .include_embedding = false,
                                  .include_lm_head = false});
  TelemetrySpikeEngine engine(1000, 2000, 4);
  runtime::TrainingSession session(m, cfg, &engine);
  const auto r = session.run();
  ASSERT_GE(r.shrinks, 1);
  ASSERT_GE(r.expands, 1);

  telemetry::TraceReader reader(dir);
  const auto transitions = reader.read<telemetry::ElasticTransitionRow>();
  int shrinks = 0, expands = 0;
  double stall_total = 0.0;
  for (const auto& t : transitions) {
    if (!t.accepted) continue;
    if (t.kind == "shrink") {
      ++shrinks;
      EXPECT_LT(t.workers_after, t.workers_before);
    }
    if (t.kind == "expand") {
      ++expands;
      EXPECT_GT(t.workers_after, t.workers_before);
    }
    if (t.kind == "shrink" || t.kind == "expand") {
      // The itemized breakdown sums to the charged stall.
      EXPECT_DOUBLE_EQ(
          t.stall_s,
          t.alpha_s + t.bootstrap_s + t.ckpt_write_s + t.ckpt_read_s);
      stall_total += t.stall_s;
    }
  }
  EXPECT_EQ(shrinks, r.shrinks);
  EXPECT_EQ(expands, r.expands);
  EXPECT_DOUBLE_EQ(stall_total, r.restart_stall_s);

  // The per-iteration ledger mirrors the transitions: the stall shows up
  // on the samples (and trace rows) of the iterations that restarted.
  double sample_stall = 0.0;
  for (const auto& s : r.samples) sample_stall += s.stall_s;
  EXPECT_GE(sample_stall, stall_total);
  double row_stall = 0.0;
  for (const auto& row : reader.read<telemetry::IterationRow>()) {
    row_stall += row.stall_s;
  }
  EXPECT_DOUBLE_EQ(row_stall, r.restart_stall_s);
}

}  // namespace
}  // namespace dynmo
