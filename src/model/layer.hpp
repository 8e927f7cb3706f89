// Layer and model descriptors.
//
// A LayerDesc is the *static* description of one pipeline-schedulable unit
// (embedding, transformer block, MoE block, LM head).  A LayerState carries
// the *dynamic* properties that the six dynamism schemes mutate during
// training (weight density, frozen flag, attention sparsity, surviving token
// fraction, MoE routing load).  Keeping them separate mirrors DynMo's
// black-box design: balancers look only at measured load, dynamism engines
// mutate only LayerState.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "hw/kernel_cost.hpp"

namespace dynmo::model {

enum class LayerKind {
  Embedding,
  TransformerBlock,
  MoeTransformerBlock,
  LmHead,
};

struct LayerDesc {
  int id = 0;
  LayerKind kind = LayerKind::TransformerBlock;
  std::string name;

  std::size_t hidden = 0;
  std::size_t seq_len = 0;
  std::size_t heads = 0;
  std::size_t ffn_hidden = 0;   ///< per-expert FFN width for MoE blocks
  std::size_t vocab = 0;        ///< for Embedding / LmHead
  std::size_t num_experts = 0;  ///< MoE only
  std::size_t top_k = 0;        ///< MoE router fan-out

  std::size_t params = 0;       ///< parameter count of this layer
};

/// Dynamic per-layer state.  All multipliers default to the static model.
struct LayerState {
  double weight_density = 1.0;  ///< fraction of unpruned weights (pruning)
  bool frozen = false;          ///< no backward pass / grads (freezing)
  double attn_density = 0.5;    ///< fraction of s*s attn matrix touched
                                ///< (0.5 = dense causal; LSH masks < 0.5)
  double token_fraction = 1.0;  ///< fraction of tokens reaching this layer
                                ///< (early exit / MoD routing)
  double moe_load = 1.0;        ///< relative load from expert routing skew
  /// Whole-layer compute multiplier — the paper's §2 formal model
  /// (load = s_i(k) · c_i); the dynamic-sparse-attention engine drives
  /// this directly, matching §2.4.
  double compute_scale = 1.0;
  hw::SpmmBackend spmm_backend = hw::SpmmBackend::DenseCublas;
};

struct ModelDesc {
  std::string name;
  std::vector<LayerDesc> layers;

  std::size_t num_layers() const { return layers.size(); }
  std::size_t total_params() const;
};

/// GPT-2-style dense decoder config matching the paper's evaluation setup
/// (seq 2048, hidden 1024, 32 heads; 24/32/40/48 blocks).
struct GptConfig {
  std::size_t num_blocks = 24;
  std::size_t hidden = 1024;
  std::size_t seq_len = 2048;
  std::size_t heads = 32;
  std::size_t ffn_mult = 4;
  std::size_t vocab = 50257;
  bool include_embedding = true;
  bool include_lm_head = true;
};

ModelDesc make_gpt(const GptConfig& cfg, const std::string& name = "gpt");

/// MoE config presets for the paper's two continual-training models.
struct MoeConfig {
  std::size_t num_blocks = 32;
  std::size_t hidden = 4096;
  std::size_t seq_len = 2048;
  std::size_t heads = 32;
  std::size_t ffn_mult = 3;     ///< Mixtral uses ~3.5x; LLaMA-MoE smaller
  std::size_t num_experts = 8;
  std::size_t top_k = 2;
  std::size_t vocab = 32000;
};

ModelDesc make_moe(const MoeConfig& cfg, const std::string& name);
MoeConfig mixtral_8x7b_config();
MoeConfig llama_moe_3_5b_config();

}  // namespace dynmo::model
