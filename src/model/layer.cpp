#include "model/layer.hpp"

#include <numeric>

#include "core/error.hpp"

namespace dynmo::model {

std::size_t ModelDesc::total_params() const {
  return std::accumulate(layers.begin(), layers.end(), std::size_t{0},
                         [](std::size_t acc, const LayerDesc& l) {
                           return acc + l.params;
                         });
}

namespace {

std::size_t dense_block_params(std::size_t hidden, std::size_t ffn) {
  // QKV + output projection: 4*h^2; MLP: 2*h*ffn; norms + biases ~ 4h.
  return 4 * hidden * hidden + 2 * hidden * ffn + 4 * hidden;
}

std::size_t moe_block_params(std::size_t hidden, std::size_t ffn,
                             std::size_t experts) {
  // Attention as dense, FFN replicated per expert, plus router.
  return 4 * hidden * hidden + experts * (2 * hidden * ffn) +
         experts * hidden + 4 * hidden;
}

}  // namespace

ModelDesc make_gpt(const GptConfig& cfg, const std::string& name) {
  DYNMO_CHECK(cfg.num_blocks > 0, "GPT needs at least one block");
  DYNMO_CHECK(cfg.hidden % cfg.heads == 0,
              "hidden " << cfg.hidden << " not divisible by heads "
                        << cfg.heads);
  ModelDesc m;
  m.name = name;
  int id = 0;
  if (cfg.include_embedding) {
    LayerDesc e;
    e.id = id++;
    e.kind = LayerKind::Embedding;
    e.name = "embedding";
    e.hidden = cfg.hidden;
    e.seq_len = cfg.seq_len;
    e.vocab = cfg.vocab;
    e.params = cfg.vocab * cfg.hidden + cfg.seq_len * cfg.hidden;
    m.layers.push_back(e);
  }
  const std::size_t ffn = cfg.ffn_mult * cfg.hidden;
  for (std::size_t b = 0; b < cfg.num_blocks; ++b) {
    LayerDesc l;
    l.id = id++;
    l.kind = LayerKind::TransformerBlock;
    l.name = "block_" + std::to_string(b);
    l.hidden = cfg.hidden;
    l.seq_len = cfg.seq_len;
    l.heads = cfg.heads;
    l.ffn_hidden = ffn;
    l.params = dense_block_params(cfg.hidden, ffn);
    m.layers.push_back(l);
  }
  if (cfg.include_lm_head) {
    LayerDesc h;
    h.id = id++;
    h.kind = LayerKind::LmHead;
    h.name = "lm_head";
    h.hidden = cfg.hidden;
    h.seq_len = cfg.seq_len;
    h.vocab = cfg.vocab;
    h.params = cfg.vocab * cfg.hidden;
    m.layers.push_back(h);
  }
  return m;
}

ModelDesc make_moe(const MoeConfig& cfg, const std::string& name) {
  ModelDesc m;
  m.name = name;
  int id = 0;
  LayerDesc e;
  e.id = id++;
  e.kind = LayerKind::Embedding;
  e.name = "embedding";
  e.hidden = cfg.hidden;
  e.seq_len = cfg.seq_len;
  e.vocab = cfg.vocab;
  e.params = cfg.vocab * cfg.hidden;
  m.layers.push_back(e);

  const std::size_t ffn = cfg.ffn_mult * cfg.hidden;
  for (std::size_t b = 0; b < cfg.num_blocks; ++b) {
    LayerDesc l;
    l.id = id++;
    l.kind = LayerKind::MoeTransformerBlock;
    l.name = "moe_block_" + std::to_string(b);
    l.hidden = cfg.hidden;
    l.seq_len = cfg.seq_len;
    l.heads = cfg.heads;
    l.ffn_hidden = ffn;
    l.num_experts = cfg.num_experts;
    l.top_k = cfg.top_k;
    l.params = moe_block_params(cfg.hidden, ffn, cfg.num_experts);
    m.layers.push_back(l);
  }

  LayerDesc h;
  h.id = id++;
  h.kind = LayerKind::LmHead;
  h.name = "lm_head";
  h.hidden = cfg.hidden;
  h.seq_len = cfg.seq_len;
  h.vocab = cfg.vocab;
  h.params = cfg.vocab * cfg.hidden;
  m.layers.push_back(h);
  return m;
}

MoeConfig mixtral_8x7b_config() {
  MoeConfig c;
  c.num_blocks = 32;
  c.hidden = 4096;
  c.seq_len = 2048;
  c.heads = 32;
  c.ffn_mult = 3;  // 14336/4096 ≈ 3.5; 3 keeps params near 46.7B/8-expert
  c.num_experts = 8;
  c.top_k = 2;
  c.vocab = 32000;
  return c;
}

MoeConfig llama_moe_3_5b_config() {
  MoeConfig c;
  c.num_blocks = 32;
  c.hidden = 2048;
  c.seq_len = 2048;
  c.heads = 16;
  c.ffn_mult = 2;
  c.num_experts = 16;
  c.top_k = 4;
  c.vocab = 32000;
  return c;
}

}  // namespace dynmo::model
