// Threaded pipeline runtime: one OS thread per worker, real buffers.
//
// The simulated-clock session (runtime/session.hpp) answers "how fast";
// this runtime answers "is it correct": workers are actual threads that
//   * execute real (small) per-layer matmuls on tensors they own,
//   * stream activations / gradients through the comm substrate,
//   * migrate layer weights with P2P transfers when the stage map changes,
//   * run the distributed global-pruning Algorithm 1 collectively, and
//   * drop out of the communicator via split when re-packed away.
//
// Determinism contract (tested): with weight updates disabled, the final
// output checksum is identical for *any* stage map and any migration
// history — load balancing must never change the math (paper §1: "DynMo
// has no impact on model accuracy").  Fault recovery preserves the
// contract: a run that loses workers rolls back to the newest checkpoint,
// re-executes the lost iterations on the surviving prefix, and lands on
// the same output/weight checksums as a fault-free run of the same seed.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "comm/communicator.hpp"
#include "fault/plan.hpp"
#include "pipeline/stage_map.hpp"
#include "telemetry/trace_writer.hpp"
#include "tensor/tensor.hpp"

namespace dynmo::runtime {

struct ThreadedConfig {
  int workers = 4;
  std::size_t num_layers = 8;
  std::size_t hidden = 32;        ///< square layer weights (hidden x hidden)
  std::size_t batch_rows = 4;     ///< microbatch activation rows
  int microbatches = 4;
  bool apply_weight_update = false;  ///< tiny SGD step per backward
  std::uint64_t seed = 0x5eed;
  /// Which comm backend carries every activation, gradient, migration,
  /// checkpoint, and heartbeat-era control message (docs/TRANSPORT.md).
  /// The runtime is transport-agnostic: any backend must produce the same
  /// checksums — the golden-trace CI gate holds it to that.
  comm::TransportKind transport = comm::TransportKind::InProc;
  /// Structured trace emission (docs/TELEMETRY.md): this runtime records
  /// measured wall-clock, not modeled costs — iterations rows come from
  /// rank 0 while it hosts layers (bottleneck/idleness stay 0), migrations
  /// rows from each P2P sender (trigger "phase"), and every restart or
  /// release phase lands in elastic_transitions with its measured stall.
  /// The writer is shared across worker threads (it locks internally).
  telemetry::TelemetryConfig telemetry{};
  /// Fault injection (docs/FAULT.md): a seeded plan of worker losses and
  /// stragglers executed against the live pipeline.  A lost worker goes
  /// silent mid-iteration; the run's missed-heartbeat monitor detects the
  /// silence and every rank rendezvouses on a checkpoint-coordinated
  /// restart over the surviving workers.  Requires workers >= 2,
  /// num_layers >= workers, and a plan with no `active`/`restart_active`
  /// phases and no empty stages (every worker must be heartbeat-visible).
  /// Stragglers stretch the victim's measured compute time only — they
  /// never change the math.
  fault::FaultPlan fault{};
  /// Cut an in-memory recovery checkpoint every N iterations (0 = only at
  /// phase starts).  Worker-loss recovery rolls back to the newest cut and
  /// re-executes everything since — the lost-work term of the
  /// checkpoint-cadence trade-off priced by runtime/session.hpp.
  std::int64_t checkpoint_interval_iters = 0;
  /// Missed-heartbeat threshold: a monitored rank silent this long is
  /// declared dead.  Healthy-but-blocked ranks keep ticking from inside
  /// the receive poll loop, so only a genuinely silent worker trips it.
  double heartbeat_timeout_s = 0.25;
};

/// One phase of the scripted run: train `iterations` on `map`, after an
/// optional migration from the previous phase's map, an optional global
/// prune, an optional worker release (repack), or an optional elastic
/// restart (expand/shrink via checkpoint).
struct PlanPhase {
  pipeline::StageMap map;
  int iterations = 1;
  std::optional<double> prune_sparsity;       ///< run Algorithm 1 first
  std::optional<std::vector<bool>> active;    ///< repack: who survives
  /// Elastic restart (docs/RUNTIME.md): the phase begins with a
  /// checkpoint-coordinated restart instead of P2P migration — current
  /// owners ship their layers into a Checkpoint assembled (and serialized
  /// through the real binary format) on rank 0, the blob is broadcast, and
  /// every rank in this mask reloads the layers `map` assigns it.
  /// Previously *released* workers may re-join here (the expand path);
  /// the collective communicator is re-created from scratch over the new
  /// active set, the "new NCCL communicator ... during the restart" of
  /// §3.4.2.  Rank 0 must stay active.  Mutually exclusive with `active`.
  std::optional<std::vector<bool>> restart_active;
  /// Heartbeat cadence while this phase's pipeline runs: every worker
  /// bumps its heartbeat at every Nth iteration boundary (and on every
  /// receive poll while blocked).  Must be >= 1.
  int heartbeat_every = 1;
};

struct ThreadedReport {
  double wall_s = 0.0;
  int iterations_run = 0;
  std::uint64_t output_checksum = 0;          ///< order-independent fold
  std::vector<std::uint64_t> weight_checksums;  ///< per layer, at the end
  std::vector<double> worker_busy_s;          ///< per initial worker
  std::uint64_t bytes_migrated = 0;
  std::size_t weights_nnz = 0;                ///< after any pruning
  int restarts = 0;                           ///< restart phases + recoveries
  /// Serialized checkpoint bytes broadcast across all restarts.
  std::uint64_t bytes_checkpoint = 0;
  int worker_losses = 0;       ///< heartbeat-detected losses recovered from
  std::vector<int> dead_workers;  ///< ranks declared dead, detection order
};

class ThreadedPipeline {
 public:
  explicit ThreadedPipeline(ThreadedConfig cfg);

  /// Execute the phases in order; blocking.  Phase 0's map is the initial
  /// placement (no migration before it).
  ThreadedReport run(const std::vector<PlanPhase>& phases);

  const ThreadedConfig& config() const { return cfg_; }

 private:
  ThreadedConfig cfg_;
};

}  // namespace dynmo::runtime
