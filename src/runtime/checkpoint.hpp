// Checkpointing, and checkpoint-coordinated re-packing (paper §3.4.2).
//
// "Re-packing can be coordinated with checkpointing. ... By combining
// re-packing with a checkpoint restart, the implementation is simplified
// since a new NCCL communicator is already created during the restart.
// Moreover, because the model is reloaded and resharded among the workers
// during checkpoint recovery, there is no additional overhead for
// resharding the model to a new set of workers."
//
// A Checkpoint captures everything needed to resume training on a
// *different* worker count: iteration, stage map, per-layer dynamic state,
// and (for the threaded runtime) the layer weights.  The binary format is
// a tagged, versioned stream with a trailing integrity checksum; the full
// byte layout is documented in docs/RUNTIME.md.  Every field is framed as
// [u16 tag][u64 size][payload], so deserialize() can both name the field a
// truncated/corrupt stream died in and skip fields it does not know
// (forward compatibility within a version).
//
// The tensor codec below (pack_tensor / unpack_tensor and the layer →
// tensor map built on it) is the one wire form of a tensor: the checkpoint's
// Weights field, the threaded runtime's activation sends and its
// checkpoint gather all use it, so every reader validates shapes the same
// way.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "comm/message.hpp"
#include "model/layer.hpp"
#include "pipeline/stage_map.hpp"
#include "tensor/tensor.hpp"

namespace dynmo::runtime {

/// Field tags of the checkpoint stream (docs/RUNTIME.md byte-layout table).
enum class CheckpointField : std::uint16_t {
  Iteration = 1,
  StageMap = 2,
  LayerStates = 3,
  Weights = 4,
};

const char* to_string(CheckpointField f);

/// The integrity checksum sealing a checkpoint stream (docs/RUNTIME.md
/// "Checkpoint binary format"): a word-at-a-time sum over 4 lanes, where
/// each 64-bit word is XORed with a key for its index and passed through
/// a bijective finalizer, and the zero-padded tail and the length are
/// folded in.  A corruption confined to one 8-byte word (so every
/// single-bit flip) always changes it.
std::uint64_t checkpoint_checksum(std::span<const std::byte> bytes);

/// Layer index → weights, as the threaded runtime holds and ships them.
using LayerTensors = std::map<std::uint64_t, tensor::Tensor>;

/// Append one tensor: [u64 rows][u64 cols][u64 count][count × f32].
void pack_tensor(comm::Packer& p, const tensor::Tensor& t);
/// Read one pack_tensor() record.  Throws dynmo::Error unless the float
/// count is exactly rows × cols — checked by division, so a corrupted shape
/// whose product wraps past 2^64 is rejected before any allocation.
tensor::Tensor unpack_tensor(comm::Unpacker& u);

/// Append a layer map: [u64 n], then n × ([u64 layer] pack_tensor).
void pack_layer_tensors(comm::Packer& p, const LayerTensors& layers);
/// Read one pack_layer_tensors() record into `into`.  Throws dynmo::Error
/// on a layer already present in `into` (a duplicate within the record, or
/// a layer another record already supplied).
void unpack_layer_tensors(comm::Unpacker& u, LayerTensors& into);

struct Checkpoint {
  static constexpr std::uint32_t kMagic = 0x44594e4d;  // "DYNM"
  /// v2: tagged [tag][size][payload] field framing (v1 was positional and
  /// is rejected — its streams carry no field boundaries to validate).
  /// v3: the trailer is checkpoint_checksum(); v2 streams, sealed with a
  /// byte-at-a-time checksum, are rejected by their version.
  static constexpr std::uint32_t kVersion = 3;

  std::int64_t iteration = 0;
  pipeline::StageMap stage_map;
  std::vector<model::LayerState> layer_states;
  /// Layer weights (threaded runtime); may be empty for simulated sessions.
  LayerTensors weights;

  /// Serialize to a byte buffer (stable across platforms of equal
  /// endianness; includes an integrity checksum).
  std::vector<std::byte> serialize() const;
  /// Parse; throws dynmo::Error on corruption / version mismatch.  Error
  /// messages are specific (docs/RUNTIME.md "Failure reporting"): a
  /// structural failure names the field and the byte offset it occurred
  /// at; a stream that parses structurally but fails the integrity check
  /// reports both checksum values.  Structurally, each of the four fields
  /// must appear exactly once (unknown tags are skipped); `frozen` must be
  /// 0 or 1 and `spmm_backend` a known backend; `layer_states` must be
  /// empty or hold one state per layer of `stage_map`; and every weight's
  /// layer must be a layer of `stage_map`.
  static Checkpoint deserialize(std::span<const std::byte> bytes);

  bool operator==(const Checkpoint& other) const;
};

}  // namespace dynmo::runtime
