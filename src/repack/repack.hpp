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
// On a multi-node cluster::Deployment, node_aligned_workers() snaps a
// survivor count the runtime chose itself up to a node boundary, so the
// release vacates *whole nodes*: a fully emptied node can be handed back to
// the job manager as a schedulable unit, and the survivors stay
// NVLink-adjacent instead of straddling a half-empty node.
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
};

/// Pack layers (in model order) into the fewest prefix workers whose memory
/// stays within capacity*fill_fraction; remaining stages are empty and their
/// workers can be released.  If `target_workers` > 0, stop consolidating at
/// that many workers even if fewer would fit.
ContiguousRepackResult repack_contiguous(const ContiguousRepackRequest& req,
                                         int num_workers);

/// The survivor count for shrinking `workers` down to `survivors`, where
/// worker w is deployment stage w (one node's stages are contiguous under
/// cluster::place_* placements): snapped *up* to the next node boundary
/// when that still frees at least one whole node — a few idle GPUs buy a
/// release of whole schedulable nodes — else `survivors` itself (a partial
/// release beats none).  Only for a count the caller chose: an explicit
/// target is a contract.
int node_aligned_workers(const cluster::Deployment& deployment, int survivors,
                         int workers);

}  // namespace dynmo::repack
