// Workload re-packing (paper §3.4, Algorithm 2).
//
// When dynamism shrinks the total workload (pruning, freezing, early exit),
// DynMo consolidates layers onto fewer workers — subject to memory capacity
// — and releases the freed GPUs to the job manager.  Two entry points:
//
//  * repack_first_fit(): the paper's Algorithm 2 verbatim, operating on
//    per-worker memory totals and emitting (src, dst, layer) transfers.
//  * repack_contiguous(): the pipeline-aware variant the runtime uses — it
//    produces a new contiguous StageMap over the surviving workers (pipeline
//    stages must stay contiguous in model order), leaving released trailing
//    workers with empty stages.
//
// repack_contiguous() has a cluster::Deployment-aware overload that prefers
// vacating *whole nodes*: a fully emptied node can be handed back to the
// job manager as a schedulable unit, and the survivors stay NVLink-adjacent
// instead of straddling a half-empty node.
#pragma once

#include <span>
#include <vector>

#include "cluster/deployment.hpp"
#include "pipeline/stage_map.hpp"

namespace dynmo::repack {

struct Transfer {
  int src_worker = 0;
  int dst_worker = 0;
  std::size_t layer_index = 0;  ///< index local to src_worker
};

struct FirstFitResult {
  std::vector<Transfer> transfers;
  std::vector<bool> active;          ///< per-worker, after consolidation
  std::vector<double> mem_usage;     ///< per-worker, after consolidation
  std::vector<std::size_t> num_layers;  ///< per-worker, after consolidation
};

/// Algorithm 2: iterate worker pairs (src, dst>src); when their combined
/// memory fits under `max_mem` and more than `target_num_workers` are still
/// active, migrate all of src's layers to dst and deactivate src.
FirstFitResult repack_first_fit(std::vector<double> mem_usage,
                                std::vector<std::size_t> num_layers,
                                double max_mem, int target_num_workers);

struct ContiguousRepackRequest {
  std::vector<double> memory_bytes;  ///< per layer
  double mem_capacity = 0.0;         ///< per worker (MAX_MEM); must be > 0
  int target_workers = 0;            ///< 0 → as few as capacity allows
  /// Fraction of capacity the packer may fill (headroom for activation
  /// spikes); default matches leaving ~10% free.
  double fill_fraction = 0.9;
};

struct ContiguousRepackResult {
  pipeline::StageMap map;   ///< same stage count; trailing stages empty
  int active_workers = 0;
  bool feasible = true;     ///< false if even all workers cannot hold it
  int whole_nodes_freed = 0;  ///< deployment overload: nodes fully vacated
};

/// Pack layers (in model order) into the fewest prefix workers whose memory
/// stays within capacity*fill_fraction; remaining stages are empty and their
/// workers can be released.  If `target_workers` > 0, stop consolidating at
/// that many workers even if fewer would fit.
ContiguousRepackResult repack_contiguous(const ContiguousRepackRequest& req,
                                         int num_workers);

/// Node-aware variant: worker w is deployment stage w (stages hosted by one
/// node are contiguous under cluster placements).  When the packer chooses
/// the survivor count (`target_workers` <= 0), it is snapped *up* to the
/// deployment's next node boundary whenever the release still frees at
/// least one whole node — keeping a node's tail workers busy costs a few
/// GPUs but turns the release into whole schedulable nodes; when no whole
/// node can be freed the memory-minimal pack is kept as-is (a partial
/// release beats none).  An explicit `target_workers` is honored exactly.
ContiguousRepackResult repack_contiguous(const ContiguousRepackRequest& req,
                                         int num_workers,
                                         const cluster::Deployment& deployment);

}  // namespace dynmo::repack
