// DynMo public API facade.
//
// One-stop entry point: pick a model, a dynamism use-case, and (optionally)
// override the out-of-the-box defaults — DynMo runs the full train →
// dynamism → profile → balance → re-pack loop and reports throughput,
// idleness, overheads, and GPU usage.
//
//   dynmo::Options opt;
//   opt.pipeline_stages = 8;
//   auto model = dynmo::model::make_gpt({.num_blocks = 24});
//   dynmo::Session session(model, dynmo::UseCase::EarlyExit, opt);
//   auto result = session.run();
//
// Multi-node clusters: describe where the training run lives with a
// cluster::Deployment — a Topology (presets: Topology::make_dgx_h100(n),
// make_homogeneous(...), make_hetero(nodes, inter)) bound to a placement and,
// through the topology's nodes, a per-rank hw::GpuSpec:
//
//   auto dep = cluster::Deployment::make_topology_aware(
//       cluster::Topology::make_dgx_h100(2), /*num_stages=*/16);
//   opt.session.deployment = dep;
//   opt.session.algorithm = balance::Algorithm::HierarchicalDiffusion;
//
// Hybrid data + pipeline parallelism spans the full DP×PP grid; the
// orientation decides whether a node's NVLink clique carries the gradient
// allreduce (DpInner) or the activation flow (PpInner):
//
//   opt.session.data_parallel = 4;
//   opt.session.deployment = cluster::Deployment::make_grid_topology_aware(
//       cluster::Topology::make_dgx_h100(2), /*data_parallel=*/4,
//       /*num_stages=*/4, cluster::GridOrientation::DpInner);
//
// Every cost surface then consumes the deployment: boundary activation
// sends and layer migrations are priced by the links the hosting ranks
// actually share (migrations mirrored across all DP replicas), each
// stage's compute by its own GPU (heterogeneous mixes via Deployment::gpu
// / capacity-weighted diffusion), collectives by the hierarchical
// node-grouped formulas (Deployment::group), the gradient allreduce by
// each stage's actual DP peer group (Deployment::dp_group), and
// re-packing prefers vacating whole nodes.
// Algorithm::HierarchicalDiffusion runs cluster::HierarchicalBalancer
// inside the session loop (intra-node moves first, inter-node only when
// node totals are out of balance) —
// SessionResult::inter_node_migration_bytes shows the fabric traffic it
// saves over flat Diffusion, and
// SessionResult::{intra,inter}_node_dp_bytes where the gradient exchange
// ran.
//
// Payoff-window acceptance (docs/COST_MODEL.md): with
// opt.session.payoff_window_iters = W, every candidate map — from any
// balancer, and every re-pack — must recoup its exposed migration cost
// within W iterations of projected bottleneck gain, or it is rejected;
// SessionResult::{maps_accepted, maps_rejected_bottleneck,
// maps_rejected_payoff, migration_bytes_avoided} report the decisions.
//
// Everything the facade does is available piecemeal through the subsystem
// headers (balance/, dynamic/, pipeline/, repack/, runtime/) for users who
// need custom engines or schedules.
#pragma once

#include <memory>

#include "cluster/deployment.hpp"
#include "cluster/hier_balancer.hpp"
#include "cluster/placement.hpp"
#include "cluster/topology.hpp"
#include "dynamic/dynamism.hpp"
#include "dynamic/early_exit.hpp"
#include "dynamic/freezing.hpp"
#include "dynamic/mod.hpp"
#include "dynamic/moe.hpp"
#include "dynamic/pruning.hpp"
#include "dynamic/sparse_attn.hpp"
#include "model/layer.hpp"
#include "runtime/session.hpp"

namespace dynmo {

/// The six dynamic-model scenarios of the paper, plus a static control.
enum class UseCase {
  Static,
  Moe,
  GradualPruning,
  LayerFreezing,
  SparseAttention,
  EarlyExit,
  MixtureOfDepths,
};

const char* to_string(UseCase c);

struct Options {
  runtime::SessionConfig session{};

  // Per-use-case engine knobs; defaults follow the paper's setups.
  dynamic::MoeEngineConfig moe{};
  dynamic::PruningEngineConfig pruning{};
  dynamic::FreezingEngineConfig freezing{};
  dynamic::SparseAttnEngineConfig sparse_attn{};
  dynamic::EarlyExitEngineConfig early_exit{};
  dynamic::ModEngineConfig mod{};
};

/// Build the dynamism engine for a use case (nullptr for Static).
std::unique_ptr<dynamic::DynamismEngine> make_engine(
    UseCase use_case, const model::ModelDesc& model, const Options& opt);

/// Facade over runtime::TrainingSession with engine lifetime management.
class Session {
 public:
  Session(model::ModelDesc model, UseCase use_case, Options opt = {});

  runtime::SessionResult run();

  const model::ModelDesc& model() const { return model_; }
  UseCase use_case() const { return use_case_; }
  Options& options() { return opt_; }

 private:
  model::ModelDesc model_;
  UseCase use_case_;
  Options opt_;
  std::unique_ptr<dynamic::DynamismEngine> engine_;
};

}  // namespace dynmo
