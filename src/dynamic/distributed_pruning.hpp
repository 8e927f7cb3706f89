// Distributed global magnitude pruning — the paper's Algorithm 1, for real.
//
// Each rank holds only its own shard of the model's parameters.  Global
// top-k selection proceeds exactly as in the paper:
//   1. each rank finds its local top-k candidates by magnitude,
//   2. rank 0 gathers the candidates (P2P send/recv, *not* a collective —
//      candidate counts differ per rank and other ranks lack the size
//      information an alltoallv would need, §4),
//   3. rank 0 computes the global top-k among candidates,
//   4. each rank receives back the flat indices it must keep and zeroes
//      every other parameter of its shard in place.
//
// Correctness property (tested): the surviving set equals what a single
// process computing top-k over the concatenation of all shards would keep.
#pragma once

#include <span>
#include <vector>

#include "comm/communicator.hpp"
#include "tensor/tensor.hpp"

namespace dynmo::dynamic {

struct GlobalPruneResult {
  /// Flat indices (into this rank's concatenated parameter shard) to keep.
  std::vector<std::uint32_t> keep_indices;
  std::size_t global_kept = 0;   ///< k actually kept across all ranks
  std::size_t local_before = 0;  ///< this rank's parameter count
  double threshold = 0.0;        ///< |value| of the smallest survivor
};

/// Run Algorithm 1 over `comm`.  `my_params` is this rank's flat parameter
/// shard; `sparsity` in [0,1) is the global fraction to remove.  Every rank
/// must call this collectively.  Ranks' shards may have different sizes.
GlobalPruneResult global_magnitude_prune(const comm::Communicator& comm,
                                         std::span<const float> my_params,
                                         double sparsity);

/// Apply a prune result in place: zero every parameter not in keep_indices.
void apply_prune_mask(std::span<float> params,
                      std::span<const std::uint32_t> keep_indices);

}  // namespace dynmo::dynamic
