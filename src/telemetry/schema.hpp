// Trace table schemas: the discovery half of the catalog+reader split.
//
// A session trace is a directory of columnar JSONL files — one file per
// table, one JSON object per row — plus a catalog.json that enumerates
// every table with its column names, types, and units (modeled on the
// self-describing table functions of SNIPPETS.md §1: discovery first,
// reading second, so tools never guess at layout).  Every row carries the
// schema version under "_v"; readers reject rows from a different version
// instead of silently misinterpreting them.
//
// Each table is a row struct plus one column list (TableOf<Row> below):
// every entry pairs a column's name, unit and description with the struct
// member it reads.  The catalog (table_specs()), the writer
// (TraceWriter::write) and the reader (TraceReader::read) are all derived
// from that list, so a column is declared exactly once.
//
// The seven tables (docs/TELEMETRY.md has the full column reference):
//   iterations           one row per simulated iteration
//   stage_loads          one row per (iteration, stage), with the
//                        per-layer load/memory arrays replay feeds back
//   rebalance_decisions  every RebalanceOutcome with its payoff math
//   migrations           every planned layer transfer that was executed
//   elastic_transitions  re-packs and elastic shrink/expand restarts,
//                        with the restart-stall breakdown
//   fleet_decisions      every fleet::Arbiter admit/grant/deny/release/
//                        preempt verdict with its fleet-payoff pricing
//                        (empty in single-session traces)
//   fault_events         every injected fault (worker loss, straggler
//                        onset/recovery) with the recovery stall ledger
//                        (docs/FAULT.md; empty in fault-free traces)
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace dynmo::telemetry {

/// Bumped whenever a column changes meaning or layout; readers refuse
/// mismatched rows (forward compatibility is explicit, never silent).
inline constexpr int kSchemaVersion = 1;
inline constexpr const char* kTraceFormat = "dynmo-trace";
inline constexpr const char* kCatalogFile = "catalog.json";

/// In the order of Column::Member's alternatives.
enum class ColumnType { Int64, Float64, Bool, String, ListFloat64 };

const char* to_string(ColumnType t);

struct ColumnSpec {
  const char* name;
  ColumnType type;
  const char* unit;  ///< "1" for dimensionless quantities
  const char* description;
};

/// One column of a row struct: its catalog entry plus the member it reads.
/// The type is the index of the member's C++ type among Member's
/// alternatives, so a column cannot claim a type its field does not have
/// (and a field of any other type does not compile).
template <typename Row>
struct Column {
  using Member = std::variant<std::int64_t Row::*, double Row::*, bool Row::*,
                              std::string Row::*, std::vector<double> Row::*>;

  template <typename T>
  constexpr Column(const char* name, T Row::*field, const char* unit,
                   const char* description)
      : member(std::in_place_type<T Row::*>, field),
        spec{name, static_cast<ColumnType>(member.index()), unit,
             description} {}

  Member member;
  ColumnSpec spec;
};

struct TableSpec {
  const char* name;
  const char* file;  ///< relative to the trace directory
  const char* description;
  std::span<const ColumnSpec> columns;
};

/// Table definition of a row struct: name, file, description and the
/// `columns` list.  Specialized once per table below.
template <typename Row>
struct TableOf;

// ---------------------------------------------------------------- rows

struct IterationRow {
  std::int64_t iter = 0;
  double time_s = 0.0;
  double event_s = 0.0;
  double bottleneck_s = 0.0;
  double idleness = 0.0;
  double bubble_ratio = 0.0;
  std::int64_t active_workers = 0;
  double compute_fraction = 1.0;
  bool rebalanced = false;
  double stall_s = 0.0;

  bool operator==(const IterationRow&) const = default;
};

template <>
struct TableOf<IterationRow> {
  using R = IterationRow;
  static constexpr const char* name = "iterations";
  static constexpr const char* file = "iterations.jsonl";
  static constexpr const char* description = "one row per simulated iteration";
  static constexpr auto columns = std::to_array<Column<R>>({
      {"iter", &R::iter, "iteration",
       "simulated iteration index (steps by sim_stride)"},
      {"time_s", &R::time_s, "s",
       "one iteration's pipeline makespan plus exposed DP time"},
      {"event_s", &R::event_s, "s",
       "one-off event time charged at this point (rebalance overheads, "
       "migrations, restart stalls)"},
      {"bottleneck_s", &R::bottleneck_s, "s",
       "max over stages of the per-layer fwd+bwd seconds hosted — the "
       "quantity replay reproduces bit-for-bit"},
      {"idleness", &R::idleness, "1",
       "average worker idleness of the pipeline timeline"},
      {"bubble_ratio", &R::bubble_ratio, "1", "pipeline bubble fraction"},
      {"active_workers", &R::active_workers, "workers",
       "workers hosting at least the possibility of layers (post "
       "re-pack/elastic)"},
      {"compute_fraction", &R::compute_fraction, "1",
       "dynamism engine's remaining-compute estimate"},
      {"rebalanced", &R::rebalanced, "1",
       "a rebalance point fired at this iteration"},
      {"stall_s", &R::stall_s, "s",
       "restart stall charged at this iteration (elastic transitions; 0 "
       "otherwise)"},
  });
};

struct StageLoadRow {
  std::int64_t iter = 0;
  std::int64_t stage = 0;
  std::int64_t rank = 0;
  std::int64_t layer_begin = 0;
  std::int64_t layer_end = 0;
  double load_s = 0.0;
  double mem_bytes = 0.0;
  /// Per-layer detail: concatenated over the stages of one iteration these
  /// reconstruct the exact per-layer profile the balancers saw — what
  /// balance::ReplayedLoads feeds back.
  std::vector<double> layer_s;
  std::vector<double> layer_mem;

  bool operator==(const StageLoadRow&) const = default;
};

template <>
struct TableOf<StageLoadRow> {
  using R = StageLoadRow;
  static constexpr const char* name = "stage_loads";
  static constexpr const char* file = "stage_loads.jsonl";
  static constexpr const char* description =
      "one row per (iteration, stage) with per-layer detail";
  static constexpr auto columns = std::to_array<Column<R>>({
      {"iter", &R::iter, "iteration", "iteration index"},
      {"stage", &R::stage, "stage", "pipeline stage"},
      {"rank", &R::rank, "rank",
       "global rank hosting the stage (dp=0 view; equals stage without a "
       "deployment)"},
      {"layer_begin", &R::layer_begin, "layer",
       "first layer hosted by the stage"},
      {"layer_end", &R::layer_end, "layer", "one past the last layer hosted"},
      {"load_s", &R::load_s, "s",
       "sum of the stage's per-layer fwd+bwd seconds (per microbatch, the "
       "balancers' currency)"},
      {"mem_bytes", &R::mem_bytes, "bytes",
       "sum of the stage's per-layer resident bytes (activation residency "
       "under the map at iteration entry)"},
      {"layer_s", &R::layer_s, "s",
       "per-layer fwd+bwd seconds for [layer_begin, layer_end); empty when "
       "per-layer recording is off"},
      {"layer_mem", &R::layer_mem, "bytes",
       "per-layer resident bytes for [layer_begin, layer_end)"},
  });
};

struct RebalanceDecisionRow {
  std::int64_t iter = 0;
  std::string trigger;
  std::string algorithm;   ///< balance::to_string(Algorithm)
  std::string balance_by;  ///< balance::to_string(BalanceBy)
  std::string decision;    ///< balance::to_string(MapDecision)
  double projected_gain_s = 0.0;
  double exposed_cost_s = 0.0;
  double candidate_bytes = 0.0;
  double migrated_bytes = 0.0;
  std::int64_t migrated_layers = 0;
  double imbalance_before = 0.0;
  double imbalance_after = 0.0;
  double decide_s = 0.0;

  bool operator==(const RebalanceDecisionRow&) const = default;
};

template <>
struct TableOf<RebalanceDecisionRow> {
  using R = RebalanceDecisionRow;
  static constexpr const char* name = "rebalance_decisions";
  static constexpr const char* file = "rebalance_decisions.jsonl";
  static constexpr const char* description =
      "every rebalance outcome with its accept/reject payoff math";
  static constexpr auto columns = std::to_array<Column<R>>({
      {"iter", &R::iter, "iteration", "iteration index"},
      {"trigger", &R::trigger, "1", "periodic | post_pack | post_restart"},
      {"algorithm", &R::algorithm, "1",
       "partition | diffusion | hier_diffusion"},
      {"balance_by", &R::balance_by, "1", "time | param"},
      {"decision", &R::decision, "1",
       "accepted | rejected_bottleneck | rejected_payoff"},
      {"projected_gain_s", &R::projected_gain_s, "s",
       "candidate's projected per-iteration bottleneck gain"},
      {"exposed_cost_s", &R::exposed_cost_s, "s",
       "priced exposed migration cost the payoff rule weighed"},
      {"candidate_bytes", &R::candidate_bytes, "bytes",
       "bytes the candidate map would have moved"},
      {"migrated_bytes", &R::migrated_bytes, "bytes",
       "bytes actually moved (0 when rejected)"},
      {"migrated_layers", &R::migrated_layers, "layers",
       "layer transfers in the executed plan"},
      {"imbalance_before", &R::imbalance_before, "1",
       "load imbalance (paper Eq. 2) before"},
      {"imbalance_after", &R::imbalance_after, "1", "load imbalance after"},
      {"decide_s", &R::decide_s, "s",
       "modeled decision time, charged from the balancer's work counter"},
  });
};

struct MigrationRow {
  std::int64_t iter = 0;
  std::string trigger;
  std::int64_t layer = 0;
  std::int64_t from_stage = 0;
  std::int64_t to_stage = 0;
  double bytes = 0.0;

  bool operator==(const MigrationRow&) const = default;
};

template <>
struct TableOf<MigrationRow> {
  using R = MigrationRow;
  static constexpr const char* name = "migrations";
  static constexpr const char* file = "migrations.jsonl";
  static constexpr const char* description = "every executed layer transfer";
  static constexpr auto columns = std::to_array<Column<R>>({
      {"iter", &R::iter, "iteration", "iteration index"},
      {"trigger", &R::trigger, "1",
       "periodic | post_pack | post_restart | repack | phase"},
      {"layer", &R::layer, "layer", "migrated layer"},
      {"from_stage", &R::from_stage, "stage", "source stage"},
      {"to_stage", &R::to_stage, "stage", "destination stage"},
      {"bytes", &R::bytes, "bytes",
       "weights+grads+optimizer state moved (one DP replica)"},
  });
};

/// Repack rows charge the migration wall-clock as stall_s with a zero
/// restart breakdown (docs/COST_MODEL.md "Restart-stall pricing").
struct ElasticTransitionRow {
  std::int64_t iter = 0;
  std::string kind;
  bool accepted = false;
  std::int64_t workers_before = 0;
  std::int64_t workers_after = 0;
  double stall_s = 0.0;
  double alpha_s = 0.0;
  double bootstrap_s = 0.0;
  double ckpt_write_s = 0.0;
  double ckpt_read_s = 0.0;
  double projected_gain_s = 0.0;
  double migrated_bytes = 0.0;

  bool operator==(const ElasticTransitionRow&) const = default;
};

template <>
struct TableOf<ElasticTransitionRow> {
  using R = ElasticTransitionRow;
  static constexpr const char* name = "elastic_transitions";
  static constexpr const char* file = "elastic_transitions.jsonl";
  static constexpr const char* description =
      "re-packs and elastic shrink/expand restarts with the restart-stall "
      "breakdown";
  static constexpr auto columns = std::to_array<Column<R>>({
      {"iter", &R::iter, "iteration", "iteration index"},
      {"kind", &R::kind, "1", "repack | shrink | expand | preempt"},
      {"accepted", &R::accepted, "1",
       "false when wanted but rejected by the payoff gate"},
      {"workers_before", &R::workers_before, "workers",
       "active workers before the transition"},
      {"workers_after", &R::workers_after, "workers",
       "active workers after (the wanted target when rejected)"},
      {"stall_s", &R::stall_s, "s",
       "total stall the transition charges (restart stall, or the re-pack's "
       "migration wall-clock)"},
      {"alpha_s", &R::alpha_s, "s",
       "restart breakdown: job-manager round-trip + respawn"},
      {"bootstrap_s", &R::bootstrap_s, "s",
       "restart breakdown: binomial communicator bootstrap"},
      {"ckpt_write_s", &R::ckpt_write_s, "s",
       "restart breakdown: busiest-shard checkpoint write"},
      {"ckpt_read_s", &R::ckpt_read_s, "s",
       "restart breakdown: busiest-shard checkpoint reload"},
      {"projected_gain_s", &R::projected_gain_s, "s",
       "per-iteration gain (expand) or freed GPU-time (shrink/repack) the "
       "payoff rule weighed"},
      {"migrated_bytes", &R::migrated_bytes, "bytes",
       "re-pack transfer bytes; restarts move none (checkpoint reload "
       "instead)"},
  });
};

/// One fleet::Arbiter verdict (docs/FLEET.md): who asked for GPUs, what
/// the arbiter decided, and the fleet-payoff pricing behind it.  Written
/// by the arbiter's own TraceWriter, so `time_s` is the fleet clock, not
/// an iteration index.  The pricing columns are 0/0 for unpriced kinds
/// (admit from free capacity, release, finish).
struct FleetDecisionRow {
  double time_s = 0.0;
  std::string job;
  std::string kind;
  bool accepted = false;
  std::int64_t priority = 0;
  std::int64_t gpus_before = 0;
  std::int64_t gpus_after = 0;
  std::int64_t pool_free_before = 0;
  std::int64_t pool_free_after = 0;
  double fair_share = 0.0;
  double projected_gain_gpu_s = 0.0;
  double exposed_cost_gpu_s = 0.0;
  std::string victim;

  bool operator==(const FleetDecisionRow&) const = default;
};

template <>
struct TableOf<FleetDecisionRow> {
  using R = FleetDecisionRow;
  static constexpr const char* name = "fleet_decisions";
  static constexpr const char* file = "fleet_decisions.jsonl";
  static constexpr const char* description =
      "every fleet arbiter admit/grant/deny/release/preempt verdict with its "
      "fleet-payoff pricing";
  static constexpr auto columns = std::to_array<Column<R>>({
      {"time_s", &R::time_s, "s", "fleet clock when the decision fired"},
      {"job", &R::job, "1", "pod name of the claimant"},
      {"kind", &R::kind, "1",
       "admit | grant | deny | release | preempt | finish"},
      {"accepted", &R::accepted, "1",
       "false for deny rows and refused preemptions"},
      {"priority", &R::priority, "1",
       "claimant's priority class (higher preempts lower)"},
      {"gpus_before", &R::gpus_before, "gpus",
       "claimant's allocation before the decision"},
      {"gpus_after", &R::gpus_after, "gpus",
       "allocation after (the wanted target when denied)"},
      {"pool_free_before", &R::pool_free_before, "gpus",
       "unreserved free GPUs in the pool before"},
      {"pool_free_after", &R::pool_free_after, "gpus",
       "unreserved free GPUs after"},
      {"fair_share", &R::fair_share, "gpus",
       "claimant's weighted max-min fair share at decision time"},
      {"projected_gain_gpu_s", &R::projected_gain_gpu_s, "gpu*s",
       "projected fleet-wide GPU-time gain over the payoff window"},
      {"exposed_cost_gpu_s", &R::exposed_cost_gpu_s, "gpu*s",
       "exposed cost the fleet-payoff rule weighed (victim restart stall + "
       "its slowdown at the reduced footprint)"},
      {"victim", &R::victim, "1",
       "preempted job (preempt rows; empty otherwise)"},
  });
};

/// One injected fault event (docs/FAULT.md): what the fault::Injector
/// fired and — for worker losses — what the checkpoint-coordinated
/// recovery cost.  stall_s is the *total* charge (restart breakdown plus
/// the work lost since the last checkpoint), so summing stall_s across
/// accepted elastic_transitions and fault_events reconstructs
/// SessionResult::restart_stall_s exactly (the ledger-consistency test
/// holds the session to this).
struct FaultEventRow {
  std::int64_t iter = 0;
  std::string kind;
  std::int64_t worker = 0;
  double multiplier = 1.0;
  std::int64_t workers_before = 0;
  std::int64_t workers_after = 0;
  double stall_s = 0.0;
  double alpha_s = 0.0;
  double bootstrap_s = 0.0;
  double ckpt_write_s = 0.0;
  double ckpt_read_s = 0.0;
  double lost_work_s = 0.0;
  std::int64_t lost_iters = 0;

  bool operator==(const FaultEventRow&) const = default;
};

template <>
struct TableOf<FaultEventRow> {
  using R = FaultEventRow;
  static constexpr const char* name = "fault_events";
  static constexpr const char* file = "fault_events.jsonl";
  static constexpr const char* description =
      "every injected fault (worker loss, straggler onset/recovery) with the "
      "recovery stall ledger";
  static constexpr auto columns = std::to_array<Column<R>>({
      {"iter", &R::iter, "iteration", "iteration the event fired at"},
      {"kind", &R::kind, "1",
       "worker_loss | straggler_onset | straggler_recovery"},
      {"worker", &R::worker, "rank", "victim worker rank"},
      {"multiplier", &R::multiplier, "1",
       "straggler compute-speed multiplier (1.0 = healthy; loss rows carry "
       "1.0)"},
      {"workers_before", &R::workers_before, "workers",
       "active workers before the event"},
      {"workers_after", &R::workers_after, "workers",
       "active workers after (unchanged for straggler rows)"},
      {"stall_s", &R::stall_s, "s",
       "total recovery charge: restart breakdown plus lost work (0 for "
       "straggler rows)"},
      {"alpha_s", &R::alpha_s, "s",
       "restart breakdown: job-manager round-trip + respawn"},
      {"bootstrap_s", &R::bootstrap_s, "s",
       "restart breakdown: binomial communicator bootstrap"},
      {"ckpt_write_s", &R::ckpt_write_s, "s",
       "restart breakdown: busiest-shard checkpoint write"},
      {"ckpt_read_s", &R::ckpt_read_s, "s",
       "restart breakdown: busiest-shard checkpoint reload"},
      {"lost_work_s", &R::lost_work_s, "s",
       "compute re-done because it post-dated the last checkpoint"},
      {"lost_iters", &R::lost_iters, "iterations",
       "iterations rolled back to the last checkpoint"},
  });
};

/// Every table's row type, in catalog order.
using TraceRows =
    std::tuple<IterationRow, StageLoadRow, RebalanceDecisionRow,
               MigrationRow, ElasticTransitionRow, FleetDecisionRow,
               FaultEventRow>;

inline constexpr std::size_t kNumTables = std::tuple_size_v<TraceRows>;

template <typename Row, std::size_t... I>
consteval std::size_t table_index(std::index_sequence<I...>) {
  static_assert((std::is_same_v<Row, std::tuple_element_t<I, TraceRows>> ||
                 ...),
                "Row is not listed in TraceRows");
  return ((std::is_same_v<Row, std::tuple_element_t<I, TraceRows>> ? I : 0) +
          ...);
}

/// Position of Row's table in TraceRows (and in table_specs()).
template <typename Row>
inline constexpr std::size_t kTableIndex =
    table_index<Row>(std::make_index_sequence<kNumTables>{});

/// All tables a trace may contain, in catalog order.
std::span<const TableSpec> table_specs();

/// Lookup by name; throws dynmo::Error for an unknown table.
const TableSpec& table_spec(std::string_view name);

/// Run-level metadata recorded in catalog.json: everything offline replay
/// needs to reconstruct the balancer configuration the session resolved
/// (docs/TELEMETRY.md "Replay").
struct RunInfo {
  std::string producer;  ///< "session" | "threaded" | "fleet"
  /// comm backend that carried the run's messages ("inproc" | "socket");
  /// empty for modeled producers that never open a comm::World.  Stripped
  /// (with `machine`) by the golden-trace gate's catalog compare — it is
  /// backend metadata, not trace content.
  std::string transport;
  /// Hostname the trace was recorded on; filled by TraceWriter when left
  /// empty.  Machine metadata, stripped by the golden-trace compare.
  std::string machine;
  std::int64_t iterations = 0;
  std::int64_t sim_stride = 1;
  std::int64_t rebalance_interval = 0;
  std::int64_t pipeline_stages = 0;
  std::int64_t data_parallel = 1;
  std::uint64_t seed = 0;
  std::string mode;
  std::string algorithm;
  std::string balance_by;
  double mem_capacity = 0.0;
  double min_bottleneck_gain = 0.0;
  double payoff_window_iters = 0.0;
  double migration_cost_multiplier = 1.0;
  double migration_exposed_fraction = 1.0;
  double gamma = 0.0;
  std::vector<int> stage_to_rank;    ///< empty → stage s is rank s
  std::vector<double> capacities;    ///< empty → uniform
  std::vector<double> layer_params;  ///< static per-layer parameter counts
  /// Columns this producer fills from a real clock, as "table.column"
  /// (the threaded runtime's measured iteration and stall times).  The
  /// catalog marks each `"deterministic": false`; every other column is a
  /// pure function of the scenario, which the golden-trace gate relies on.
  std::vector<std::string> measured_columns;
};

/// Telemetry knob embedded in runtime configs: disabled (and zero-cost)
/// unless a trace directory is set.
struct TelemetryConfig {
  /// Trace output directory; created (parents included) on first use,
  /// existing table files truncated.  Empty → telemetry fully disabled.
  std::string dir;
  /// Record the per-layer arrays in stage_loads (required for replay;
  /// turn off to shrink traces when only stage totals are wanted).
  bool per_layer = true;

  bool enabled() const { return !dir.empty(); }
};

}  // namespace dynmo::telemetry
