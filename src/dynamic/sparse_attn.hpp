// Dynamic sparse FlashAttention engine (paper §2.4, §4.2.4).
//
// Hash-based (LSH) attention restricts each query to keys sharing a hash
// bucket; combined with FlashAttention this yields *block-sparse* causal
// masks whose density differs per layer and per iteration — the hash
// functions are re-drawn as activations evolve, so the touched-block count
// fluctuates (Pagliardini et al., NeurIPS'23).
//
// The engine simulates the bucket structure directly: per layer, queries and
// keys fall into `num_buckets` LSH buckets with a layer-specific skew; the
// attention density is the causal mass of same-bucket block pairs.  Layer
// cost then follows the paper's §2.4 model (load = s_i(k) · c_i).
#pragma once

#include <limits>
#include <vector>

#include "core/rng.hpp"
#include "dynamic/dynamism.hpp"

namespace dynmo::dynamic {

struct SparseAttnEngineConfig {
  int num_buckets = 16;
  int blocks_per_seq = 64;          ///< flash tiles along the sequence
  double bucket_zipf_s = 1.1;       ///< bucket popularity skew
  /// Per-layer persistent bias: some layers hash into few hot buckets
  /// (denser), others spread (sparser).  Log-spread of the per-layer mean.
  double layer_spread = 0.9;
  double iteration_jitter = 0.25;   ///< per-iteration lognormal sigma
  double min_density = 0.02;        ///< relative to the full matrix
  std::uint64_t seed = 0x5eed;
};

class SparseAttnEngine final : public DynamismEngine {
 public:
  SparseAttnEngine(const model::ModelDesc& model, SparseAttnEngineConfig cfg);

  std::string name() const override { return "dynamic_sparse_attention"; }
  bool is_dynamism_point(std::int64_t iter) const override {
    (void)iter;
    return true;  // hash masks change every iteration
  }
  void step(std::int64_t iter, std::span<model::LayerState> states) override;
  std::int64_t recommended_rebalance_interval() const override { return 1; }

  /// The simulated block-sparse density for one layer at one iteration —
  /// fraction of the full s×s attention matrix covered by same-bucket
  /// causal blocks (dense causal = 0.5).
  double layer_density(std::size_t layer, std::int64_t iter) const;

 private:
  /// What one hash epoch (the iterations between two re-draws of the hash
  /// functions) fixes for a layer.
  struct HashEpoch {
    std::int64_t epoch = std::numeric_limits<std::int64_t>::min();
    double causal_frac = 0.0;  ///< same-bucket share of causal tile pairs
    double slow = 0.0;         ///< the epoch's slow log-density jitter
  };
  HashEpoch epoch_draw(std::size_t layer, std::int64_t epoch) const;
  /// The density at `iter`, given the epoch `iter` falls in.
  double compose(std::size_t layer, std::int64_t iter,
                 const HashEpoch& e) const;

  const model::ModelDesc* model_;
  SparseAttnEngineConfig cfg_;
  std::vector<double> layer_bias_;  ///< per-layer mean log-density offset
  std::vector<HashEpoch> epochs_;   ///< step()'s last epoch per layer
};

}  // namespace dynmo::dynamic
