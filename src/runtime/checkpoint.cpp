#include "runtime/checkpoint.hpp"

#include <algorithm>
#include <cstring>

#include "core/error.hpp"

namespace dynmo::runtime {

namespace {

/// MurmurHash3's 64-bit finalizer: a bijection on 64-bit words.
constexpr std::uint64_t fmix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// Key XORed into word i, so a word's contribution depends on where it
/// sits.
constexpr std::uint64_t word_key(std::size_t i) {
  return (static_cast<std::uint64_t>(i) + 1) * 0x9e3779b97f4a7c15ULL;
}

void pack_layer_state(comm::Packer& p, const model::LayerState& s) {
  p.put(s.weight_density);
  p.put(static_cast<std::uint8_t>(s.frozen ? 1 : 0));
  p.put(s.attn_density);
  p.put(s.token_fraction);
  p.put(s.moe_load);
  p.put(s.compute_scale);
  p.put(static_cast<std::uint8_t>(s.spmm_backend));
}

/// Wire size of one packed LayerState (pack_layer_state above): five f64
/// fields plus the two u8 flags.
constexpr std::size_t kPackedLayerStateBytes = 5 * sizeof(double) + 2;

model::LayerState unpack_layer_state(comm::Unpacker& u) {
  model::LayerState s;
  s.weight_density = u.get<double>();
  const auto frozen = u.get<std::uint8_t>();
  DYNMO_CHECK(frozen <= 1, "frozen flag " << int{frozen} << " is not 0 or 1");
  s.frozen = frozen != 0;
  s.attn_density = u.get<double>();
  s.token_fraction = u.get<double>();
  s.moe_load = u.get<double>();
  s.compute_scale = u.get<double>();
  const auto backend = u.get<std::uint8_t>();
  DYNMO_CHECK(backend <= static_cast<std::uint8_t>(hw::SpmmBackend::Cusparse),
              "spmm_backend " << int{backend} << " is not a known backend");
  s.spmm_backend = static_cast<hw::SpmmBackend>(backend);
  return s;
}

/// Frame one field: [u16 tag][u64 size][payload bytes].
void put_field(comm::Packer& p, CheckpointField tag, comm::Packer payload) {
  p.put(static_cast<std::uint16_t>(tag));
  const auto bytes = payload.take();
  p.put_span(std::span<const std::byte>(bytes));
}

/// Parse one field payload, converting any structural failure (overrun,
/// shape mismatch) into an error that names the field and the offset —
/// `field_off` is where the field's frame starts in the whole stream,
/// `u.pos()` how far into the payload the parse got.
template <typename Fn>
void parse_field(CheckpointField tag, std::size_t field_off,
                 std::span<const std::byte> payload, Fn&& fn) {
  comm::Unpacker u(payload);
  try {
    fn(u);
    DYNMO_CHECK(u.exhausted(), "field has " << u.remaining()
                                            << " trailing bytes");
  } catch (const Error& e) {
    throw Error(std::string("checkpoint field '") + to_string(tag) +
                "' invalid at stream offset " + std::to_string(field_off) +
                " (+" + std::to_string(u.pos()) +
                " into the field): " + e.what());
  }
}

/// Smallest pack_layer_tensors() entry: the layer key plus an empty
/// tensor's rows, cols and float count.
constexpr std::size_t kMinLayerTensorBytes = 4 * sizeof(std::uint64_t);

}  // namespace

std::uint64_t checkpoint_checksum(std::span<const std::byte> bytes) {
  constexpr std::size_t kWord = sizeof(std::uint64_t);
  constexpr std::size_t kLanes = 4;
  const std::size_t words = bytes.size() / kWord;
  // Word i adds fmix64(word ^ key(i)) into lane i % 4 (four independent
  // sums, so the adds do not serialize).  The map from a word to its term
  // is a bijection and the lane sums are mod 2^64, so changing any one
  // word, or the zero-padded tail, changes its lane's sum.
  std::uint64_t lane[kLanes] = {};
  const auto add = [&](std::size_t i, std::size_t len) {
    std::uint64_t w = 0;
    std::memcpy(&w, bytes.data() + i * kWord, len);
    lane[i % kLanes] += fmix64(w ^ word_key(i));
  };
  std::size_t i = 0;
  // Whole blocks of 4 words, unrolled so each lane stays in a register.
  for (; i + kLanes <= words; i += kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) add(i + l, kWord);
  }
  for (; i < words; ++i) add(i, kWord);
  if (const std::size_t tail = bytes.size() % kWord; tail != 0) add(words, tail);
  // Fold the lanes and the length in a chain where each step is a
  // bijection of the running value, so a change to any one lane (or to
  // the length) changes the result.
  std::uint64_t h = fmix64(static_cast<std::uint64_t>(bytes.size()));
  for (const std::uint64_t l : lane) h = fmix64(h + l);
  return h;
}

void pack_tensor(comm::Packer& p, const tensor::Tensor& t) {
  p.put<std::uint64_t>(t.rows());
  p.put<std::uint64_t>(t.cols());
  p.put_span(t.data());
}

tensor::Tensor unpack_tensor(comm::Unpacker& u) {
  const auto rows = u.get<std::uint64_t>();
  const auto cols = u.get<std::uint64_t>();
  const auto data = u.get_view<float>();
  const std::size_t floats = data.size() / sizeof(float);
  // Divide instead of multiplying rows * cols: a corrupted shape whose
  // product wraps past 2^64 must fail here, not reach the allocator.
  const bool shape_ok =
      (rows == 0 || cols == 0)
          ? floats == 0
          : floats / rows == cols && floats % rows == 0;
  DYNMO_CHECK(shape_ok, "tensor shape " << rows << "x" << cols << " != "
                                        << floats << " floats");
  tensor::Tensor t(rows, cols);
  if (floats != 0) std::memcpy(t.data().data(), data.data(), data.size());
  return t;
}

void pack_layer_tensors(comm::Packer& p, const LayerTensors& layers) {
  p.put<std::uint64_t>(layers.size());
  for (const auto& [layer, t] : layers) {
    p.put(layer);
    pack_tensor(p, t);
  }
}

void unpack_layer_tensors(comm::Unpacker& u, LayerTensors& into) {
  const auto n = u.get<std::uint64_t>();
  DYNMO_CHECK(n <= u.remaining() / kMinLayerTensorBytes,
              "layer count " << n << " exceeds the " << u.remaining()
                             << " bytes left");
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto layer = u.get<std::uint64_t>();
    DYNMO_CHECK(!into.contains(layer), "layer " << layer << " appears twice");
    into.emplace(layer, unpack_tensor(u));
  }
}

const char* to_string(CheckpointField f) {
  switch (f) {
    case CheckpointField::Iteration: return "iteration";
    case CheckpointField::StageMap: return "stage_map";
    case CheckpointField::LayerStates: return "layer_states";
    case CheckpointField::Weights: return "weights";
  }
  return "?";
}

std::vector<std::byte> Checkpoint::serialize() const {
  comm::Packer p;
  p.put(kMagic);
  p.put(kVersion);

  {
    comm::Packer f;
    f.put(iteration);
    put_field(p, CheckpointField::Iteration, std::move(f));
  }
  {
    comm::Packer f;
    const auto& b = stage_map.boundaries();
    f.put_vector(std::vector<std::uint64_t>(b.begin(), b.end()));
    put_field(p, CheckpointField::StageMap, std::move(f));
  }
  {
    comm::Packer f;
    f.put<std::uint64_t>(layer_states.size());
    for (const auto& s : layer_states) pack_layer_state(f, s);
    put_field(p, CheckpointField::LayerStates, std::move(f));
  }
  {
    comm::Packer f;
    pack_layer_tensors(f, weights);
    put_field(p, CheckpointField::Weights, std::move(f));
  }

  auto body = p.take();
  const std::uint64_t checksum = checkpoint_checksum(body);
  comm::Packer tail;
  tail.put(checksum);
  const auto tail_bytes = tail.take();
  body.insert(body.end(), tail_bytes.begin(), tail_bytes.end());
  return body;
}

Checkpoint Checkpoint::deserialize(std::span<const std::byte> bytes) {
  // Header (magic+version) + checksum trailer is the minimum stream.
  constexpr std::size_t kMinBytes = 2 * sizeof(std::uint32_t) +
                                    sizeof(std::uint64_t);
  DYNMO_CHECK(bytes.size() >= kMinBytes,
              "checkpoint truncated: " << bytes.size() << " bytes, header + "
              << "checksum need " << kMinBytes);
  const auto body = bytes.first(bytes.size() - sizeof(std::uint64_t));

  // Structure first, integrity second: a truncated stream then fails with
  // the *field* it died in, and only structurally-sound streams reach the
  // checksum comparison (which then indicts bit corruption specifically).
  comm::Unpacker u(body);
  const auto magic = u.get<std::uint32_t>();
  DYNMO_CHECK(magic == kMagic,
              "not a DynMo checkpoint (magic 0x" << std::hex << magic
                                                 << ", want 0x" << kMagic
                                                 << ")");
  const auto version = u.get<std::uint32_t>();
  DYNMO_CHECK(version == kVersion, "unsupported checkpoint version "
                                       << version << " (this build reads "
                                       << kVersion << ")");

  Checkpoint ckpt;
  constexpr CheckpointField kFields[] = {
      CheckpointField::Iteration, CheckpointField::StageMap,
      CheckpointField::LayerStates, CheckpointField::Weights};
  std::uint32_t seen = 0;  // bit t set once field tag t has been read
  while (!u.exhausted()) {
    const std::size_t field_off = u.pos();
    std::uint16_t raw_tag = 0;
    std::span<const std::byte> payload;
    try {
      raw_tag = u.get<std::uint16_t>();
      payload = u.get_view<std::byte>();
    } catch (const Error&) {
      throw Error("checkpoint field frame truncated at stream offset " +
                  std::to_string(field_off) + " (" +
                  std::to_string(body.size() - field_off) +
                  " bytes left of a " + std::to_string(body.size()) +
                  "-byte body)");
    }
    if (std::ranges::find(kFields, static_cast<CheckpointField>(raw_tag)) !=
        std::end(kFields)) {
      DYNMO_CHECK((seen & (1u << raw_tag)) == 0,
                  "checkpoint field '"
                      << to_string(static_cast<CheckpointField>(raw_tag))
                      << "' appears twice (again at stream offset "
                      << field_off << ")");
      seen |= 1u << raw_tag;
    }
    switch (static_cast<CheckpointField>(raw_tag)) {
      case CheckpointField::Iteration:
        parse_field(CheckpointField::Iteration, field_off, payload,
                    [&](comm::Unpacker& f) {
                      ckpt.iteration = f.get<std::int64_t>();
                    });
        break;
      case CheckpointField::StageMap:
        parse_field(CheckpointField::StageMap, field_off, payload,
                    [&](comm::Unpacker& f) {
                      const auto b64 = f.get_vector<std::uint64_t>();
                      ckpt.stage_map = pipeline::StageMap::from_boundaries(
                          std::vector<std::size_t>(b64.begin(), b64.end()));
                    });
        break;
      case CheckpointField::LayerStates:
        parse_field(CheckpointField::LayerStates, field_off, payload,
                    [&](comm::Unpacker& f) {
                      const auto n = f.get<std::uint64_t>();
                      // Bound the count by the payload *before* reserve():
                      // a corrupted count must surface as this Error, not
                      // as a std::length_error / huge allocation.
                      DYNMO_CHECK(
                          n <= f.remaining() / kPackedLayerStateBytes,
                          "state count " << n << " exceeds the "
                                         << f.remaining()
                                         << " payload bytes left");
                      ckpt.layer_states.clear();
                      ckpt.layer_states.reserve(n);
                      for (std::uint64_t i = 0; i < n; ++i) {
                        ckpt.layer_states.push_back(unpack_layer_state(f));
                      }
                    });
        break;
      case CheckpointField::Weights:
        parse_field(CheckpointField::Weights, field_off, payload,
                    [&](comm::Unpacker& f) {
                      unpack_layer_tensors(f, ckpt.weights);
                    });
        break;
      default:
        // Unknown tag within a known version: a future writer added a
        // field.  The frame carries its size, so skip it (the checksum
        // still covers it).
        break;
    }
  }

  // Cross-field rules: every field present, and the states and weights
  // describe layers of the stage map.
  for (const CheckpointField f : kFields) {
    DYNMO_CHECK((seen & (1u << static_cast<std::uint16_t>(f))) != 0,
                "checkpoint field '" << to_string(f) << "' is missing");
  }
  const std::size_t layers = ckpt.stage_map.num_layers();
  DYNMO_CHECK(ckpt.layer_states.empty() || ckpt.layer_states.size() == layers,
              "checkpoint field 'layer_states' holds "
                  << ckpt.layer_states.size() << " states for a " << layers
                  << "-layer stage_map");
  DYNMO_CHECK(ckpt.weights.empty() || ckpt.weights.rbegin()->first < layers,
              "checkpoint field 'weights' holds layer "
                  << ckpt.weights.rbegin()->first << " of a " << layers
                  << "-layer stage_map");

  {
    comm::Unpacker tail(bytes.subspan(body.size()));
    const auto stored = tail.get<std::uint64_t>();
    const auto computed = checkpoint_checksum(body);
    DYNMO_CHECK(stored == computed,
                "checkpoint integrity checksum mismatch (stored 0x"
                    << std::hex << stored << ", computed 0x" << computed
                    << "): bit corruption in a structurally valid stream");
  }
  return ckpt;
}

bool Checkpoint::operator==(const Checkpoint& other) const {
  if (iteration != other.iteration || stage_map != other.stage_map ||
      layer_states.size() != other.layer_states.size() ||
      weights.size() != other.weights.size()) {
    return false;
  }
  for (std::size_t i = 0; i < layer_states.size(); ++i) {
    const auto& a = layer_states[i];
    const auto& b = other.layer_states[i];
    if (a.weight_density != b.weight_density || a.frozen != b.frozen ||
        a.attn_density != b.attn_density ||
        a.token_fraction != b.token_fraction || a.moe_load != b.moe_load ||
        a.compute_scale != b.compute_scale ||
        a.spmm_backend != b.spmm_backend) {
      return false;
    }
  }
  for (const auto& [layer, w] : weights) {
    const auto it = other.weights.find(layer);
    if (it == other.weights.end() || !it->second.same_shape(w)) return false;
    const auto a = w.data();
    const auto b = it->second.data();
    if (!std::equal(a.begin(), a.end(), b.begin())) return false;
  }
  return true;
}

}  // namespace dynmo::runtime
