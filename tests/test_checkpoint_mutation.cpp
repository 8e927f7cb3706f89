// Seeded mutation test for Checkpoint::deserialize and the tensor wire
// codec.  Checkpoint bytes come from outside the process (a file, a peer's
// gather message), so a corrupted stream must end in a dynmo::Error or in
// a checkpoint that is structurally sound — never a crash, an unbounded
// allocation, or a checkpoint that silently dropped or invented data.
//
// Every mutation re-seals the stream with runtime::checkpoint_checksum, so
// it reaches the structural checks instead of stopping at the integrity
// trailer.  The fixed regressions below are the malformed-but-checksummed
// streams the reader used to accept.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <random>
#include <span>
#include <vector>

#include "comm/message.hpp"
#include "core/error.hpp"
#include "core/rng.hpp"
#include "runtime/checkpoint.hpp"

namespace dynmo {
namespace {

using runtime::Checkpoint;
using runtime::CheckpointField;
using Bytes = std::vector<std::byte>;

constexpr std::uint64_t kSeeds = 3000;
constexpr std::size_t kHeaderBytes = 2 * sizeof(std::uint32_t);
constexpr std::size_t kFrameHeadBytes =
    sizeof(std::uint16_t) + sizeof(std::uint64_t);
constexpr std::size_t kLayerStateBytes = 5 * sizeof(double) + 2;

/// `body` followed by its checksum: a stream whose integrity check passes.
Bytes seal(Bytes body) {
  const std::uint64_t h = runtime::checkpoint_checksum(body);
  const auto* p = reinterpret_cast<const std::byte*>(&h);
  body.insert(body.end(), p, p + sizeof(h));
  return body;
}

/// A stream split into its magic+version header and whole field frames.
struct Stream {
  Bytes header;
  std::vector<Bytes> frames;  ///< each [u16 tag][u64 size][payload]

  explicit Stream(const Bytes& bytes) {
    const std::size_t body = bytes.size() - sizeof(std::uint64_t);
    header.assign(bytes.begin(), bytes.begin() + kHeaderBytes);
    for (std::size_t pos = kHeaderBytes; pos < body;) {
      std::uint64_t size = 0;
      std::memcpy(&size, bytes.data() + pos + sizeof(std::uint16_t),
                  sizeof(size));
      const std::size_t end = pos + kFrameHeadBytes + size;
      frames.emplace_back(bytes.begin() + static_cast<std::ptrdiff_t>(pos),
                          bytes.begin() + static_cast<std::ptrdiff_t>(end));
      pos = end;
    }
  }

  Bytes body() const {
    Bytes out = header;
    for (const auto& f : frames) out.insert(out.end(), f.begin(), f.end());
    return out;
  }

  static std::uint16_t tag(const Bytes& frame) {
    std::uint16_t t = 0;
    std::memcpy(&t, frame.data(), sizeof(t));
    return t;
  }

  /// The frame carrying `field` (each appears once in a writer's stream).
  Bytes& frame(CheckpointField field) {
    for (auto& f : frames) {
      if (tag(f) == static_cast<std::uint16_t>(field)) return f;
    }
    throw Error("no such frame");
  }
};

Checkpoint sample_checkpoint() {
  Checkpoint ckpt;
  ckpt.iteration = 4242;
  ckpt.stage_map = pipeline::StageMap::from_boundaries({0, 3, 5, 8});
  ckpt.layer_states.resize(8);
  ckpt.layer_states[1].frozen = true;
  ckpt.layer_states[2].weight_density = 0.1;
  ckpt.layer_states[2].spmm_backend = hw::SpmmBackend::Sputnik;
  ckpt.layer_states[5].token_fraction = 0.25;
  Rng rng(9);
  ckpt.weights.emplace(0, tensor::Tensor::random(4, 4, rng));
  ckpt.weights.emplace(7, tensor::Tensor::random(6, 2, rng));
  return ckpt;
}

/// The structural rules deserialize() promises for an accepted stream.
void expect_sound(const Checkpoint& c) {
  const std::size_t layers = c.stage_map.num_layers();
  EXPECT_TRUE(c.layer_states.empty() || c.layer_states.size() == layers);
  for (const auto& s : c.layer_states) {
    EXPECT_LE(static_cast<int>(s.spmm_backend),
              static_cast<int>(hw::SpmmBackend::Cusparse));
  }
  for (const auto& [layer, w] : c.weights) {
    EXPECT_LT(layer, layers);
    EXPECT_EQ(w.data().size(), w.rows() * w.cols());
  }
}

/// `bytes`' known fields in tag order: what a writer emits for the same
/// checkpoint (readers accept any field order and skip unknown tags).
Bytes canonical_body(const Bytes& bytes) {
  Stream s(bytes);
  std::erase_if(s.frames, [](const Bytes& f) {
    const auto t = Stream::tag(f);
    return t < static_cast<std::uint16_t>(CheckpointField::Iteration) ||
           t > static_cast<std::uint16_t>(CheckpointField::Weights);
  });
  std::stable_sort(s.frames.begin(), s.frames.end(),
                   [](const Bytes& a, const Bytes& b) {
                     return Stream::tag(a) < Stream::tag(b);
                   });
  return s.body();
}

template <typename Fn>
void expect_error_naming(const Bytes& bytes, const std::string& needle,
                         Fn&& describe) {
  try {
    (void)Checkpoint::deserialize(bytes);
    ADD_FAILURE() << describe() << ": accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << describe() << ": " << e.what();
  }
}

TEST(CheckpointMutation, SealMatchesTheWriter) {
  const Bytes clean = sample_checkpoint().serialize();
  const Bytes body(clean.begin(), clean.end() - sizeof(std::uint64_t));
  ASSERT_EQ(seal(body), clean);
  ASSERT_EQ(Stream(clean).frames.size(), 4u);
  ASSERT_EQ(seal(Stream(clean).body()), clean);
  EXPECT_EQ(Checkpoint::deserialize(clean), sample_checkpoint());
}

TEST(CheckpointMutation, EverySingleBitFlipIsRejected) {
  // The checksum catches any change confined to one 8-byte word; a flip in
  // the trailer itself mismatches the body's checksum.
  const Bytes clean = sample_checkpoint().serialize();
  for (std::size_t bit = 0; bit < clean.size() * 8; ++bit) {
    Bytes bytes = clean;
    bytes[bit / 8] ^= std::byte{1} << (bit % 8);
    EXPECT_THROW((void)Checkpoint::deserialize(bytes), Error)
        << "bit " << bit % 8 << " of byte " << bit / 8;
  }
}

TEST(CheckpointMutation, ChecksumCoversLengthAndTail) {
  // Appending a zero byte leaves the zero-padded tail word as it was;
  // only the folded-in length tells the two apart.
  Bytes body(13, std::byte{0});
  const std::uint64_t h = runtime::checkpoint_checksum(body);
  body.push_back(std::byte{0});
  EXPECT_NE(runtime::checkpoint_checksum(body), h);
}

TEST(CheckpointMutation, VersionTwoStreamIsRejected) {
  // A version-2 stream (byte-wise checksum) fails on its version, before
  // any field or the trailer is read.
  static_assert(Checkpoint::kVersion == 3);
  Bytes bytes = sample_checkpoint().serialize();
  const std::uint32_t v2 = 2;
  std::memcpy(bytes.data() + sizeof(std::uint32_t), &v2, sizeof(v2));
  bytes.resize(bytes.size() - sizeof(std::uint64_t));
  expect_error_naming(seal(std::move(bytes)), "version 2",
                      [] { return "version 2"; });
}

// ------------------------------------------------------ fixed regressions

TEST(CheckpointMutation, EveryFieldIsRequired) {
  const Stream clean(sample_checkpoint().serialize());
  for (std::size_t i = 0; i < clean.frames.size(); ++i) {
    Stream s = clean;
    const auto tag = Stream::tag(s.frames[i]);
    s.frames.erase(s.frames.begin() + static_cast<std::ptrdiff_t>(i));
    expect_error_naming(
        seal(s.body()),
        std::string("'") +
            runtime::to_string(static_cast<CheckpointField>(tag)) +
            "' is missing",
        [&] { return "frame " + std::to_string(i) + " dropped"; });
  }
}

TEST(CheckpointMutation, EveryFieldAppearsOnce) {
  const Stream clean(sample_checkpoint().serialize());
  for (std::size_t i = 0; i < clean.frames.size(); ++i) {
    Stream s = clean;
    s.frames.push_back(s.frames[i]);
    expect_error_naming(seal(s.body()), "appears twice", [&] {
      return "frame " + std::to_string(i) + " duplicated";
    });
  }
}

TEST(CheckpointMutation, ReorderedFieldsAreAccepted) {
  Stream s(sample_checkpoint().serialize());
  std::reverse(s.frames.begin(), s.frames.end());
  EXPECT_EQ(Checkpoint::deserialize(seal(s.body())), sample_checkpoint());
}

TEST(CheckpointMutation, LayerStatesMustCoverTheStageMap) {
  auto ckpt = sample_checkpoint();
  ckpt.stage_map = pipeline::StageMap::from_boundaries({0, 2, 4});
  ckpt.layer_states.resize(3);  // 3 states under a 4-layer map
  ckpt.weights.clear();
  expect_error_naming(ckpt.serialize(), "'layer_states' holds 3 states",
                      [] { return "3 states, 4 layers"; });
  ckpt.layer_states.clear();  // the threaded runtime's empty state list
  EXPECT_NO_THROW((void)Checkpoint::deserialize(ckpt.serialize()));
}

TEST(CheckpointMutation, EnumBytesAreRangeChecked) {
  {
    auto ckpt = sample_checkpoint();
    ckpt.layer_states[3].spmm_backend = static_cast<hw::SpmmBackend>(9);
    expect_error_naming(ckpt.serialize(), "spmm_backend 9",
                        [] { return "spmm_backend 9"; });
  }
  {
    Stream s(sample_checkpoint().serialize());
    Bytes& f = s.frame(CheckpointField::LayerStates);
    // Payload: u64 count, then the states; frozen follows weight_density.
    f[kFrameHeadBytes + sizeof(std::uint64_t) + 3 * kLayerStateBytes +
      sizeof(double)] = std::byte{200};
    expect_error_naming(seal(s.body()), "frozen flag 200",
                        [] { return "frozen 200"; });
  }
}

TEST(CheckpointMutation, WeightsMustBeLayersOfTheStageMap) {
  auto ckpt = sample_checkpoint();
  ckpt.weights.emplace(8, tensor::Tensor(1, 1));  // an 8-layer map
  expect_error_naming(ckpt.serialize(), "'weights' holds layer 8",
                      [] { return "weight key 8"; });
}

TEST(CheckpointMutation, DuplicateWeightLayerIsAnError) {
  // Two entries for layer 0: the writer's map cannot produce this, so
  // append a second record by hand and patch the count.
  Stream s(sample_checkpoint().serialize());
  Bytes& f = s.frame(CheckpointField::Weights);
  comm::Packer extra;
  extra.put<std::uint64_t>(0);
  runtime::pack_tensor(extra, tensor::Tensor(2, 2, 1.0f));
  const Bytes rec = extra.take();
  f.insert(f.end(), rec.begin(), rec.end());
  std::uint64_t size = 0;
  std::memcpy(&size, f.data() + sizeof(std::uint16_t), sizeof(size));
  size += rec.size();
  std::memcpy(f.data() + sizeof(std::uint16_t), &size, sizeof(size));
  std::uint64_t count = 0;
  std::memcpy(&count, f.data() + kFrameHeadBytes, sizeof(count));
  ++count;
  std::memcpy(f.data() + kFrameHeadBytes, &count, sizeof(count));
  expect_error_naming(seal(s.body()), "layer 0 appears twice",
                      [] { return "duplicate layer 0"; });
}

// ------------------------------------------------------------ tensor codec

Bytes tensor_record(std::uint64_t rows, std::uint64_t cols,
                    std::size_t floats) {
  comm::Packer p;
  p.put(rows);
  p.put(cols);
  p.put_vector(std::vector<float>(floats, 1.0f));
  return p.take();
}

TEST(TensorCodec, RoundTrip) {
  Rng rng(3);
  const auto t = tensor::Tensor::random(3, 5, rng);
  comm::Packer p;
  runtime::pack_tensor(p, t);
  const Bytes bytes = p.take();
  comm::Unpacker u(bytes);
  const auto back = runtime::unpack_tensor(u);
  EXPECT_TRUE(u.exhausted());
  ASSERT_TRUE(back.same_shape(t));
  EXPECT_TRUE(std::equal(t.data().begin(), t.data().end(),
                         back.data().begin()));
}

TEST(TensorCodec, WrappedShapeIsRejected) {
  // 2^32 × 2^32 wraps to 0 floats under multiplication.
  const Bytes bytes = tensor_record(1ull << 32, 1ull << 32, 0);
  comm::Unpacker u(bytes);
  EXPECT_THROW((void)runtime::unpack_tensor(u), Error);
}

TEST(TensorCodec, OversizedPayloadIsRejected) {
  // More floats than rows × cols must not be copied into a 2×2 buffer.
  const Bytes bytes = tensor_record(2, 2, 5);
  comm::Unpacker u(bytes);
  EXPECT_THROW((void)runtime::unpack_tensor(u), Error);
  const Bytes empty_shape = tensor_record(0, 3, 1);
  comm::Unpacker v(empty_shape);
  EXPECT_THROW((void)runtime::unpack_tensor(v), Error);
}

TEST(TensorCodec, LayerMapRejectsLayersAlreadyPresent) {
  runtime::LayerTensors one;
  one.emplace(3, tensor::Tensor(1, 2, 0.5f));
  comm::Packer p;
  runtime::pack_layer_tensors(p, one);
  const Bytes bytes = p.take();
  runtime::LayerTensors into;
  comm::Unpacker first(bytes);
  runtime::unpack_layer_tensors(first, into);
  EXPECT_EQ(into.size(), 1u);
  // A second rank shipping the same layer is an error, not a silent pick.
  comm::Unpacker second(bytes);
  EXPECT_THROW(runtime::unpack_layer_tensors(second, into), Error);
}

TEST(TensorCodec, LayerMapCountIsBoundedByThePayload) {
  comm::Packer p;
  p.put<std::uint64_t>(~0ull);
  const Bytes bytes = p.take();
  comm::Unpacker u(bytes);
  runtime::LayerTensors into;
  EXPECT_THROW(runtime::unpack_layer_tensors(u, into), Error);
}

// ----------------------------------------------------------- seeded sweep

/// One to three random structural or byte-level corruptions.
Bytes mutate(const Stream& clean, std::mt19937_64& rng) {
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % (n + 1));
  };
  Stream s = clean;
  const int rounds = 1 + static_cast<int>(rng() % 3);
  std::vector<int> byte_ops;
  for (int i = 0; i < rounds; ++i) {
    const int op = static_cast<int>(rng() % 7);
    const std::size_t n = s.frames.size();
    switch (op) {
      case 0:  // frame drop
        if (n > 0) {
          s.frames.erase(s.frames.begin() +
                         static_cast<std::ptrdiff_t>(pick(n - 1)));
        }
        break;
      case 1:  // frame duplicate, inserted anywhere
        if (n > 0) {
          const Bytes copy = s.frames[pick(n - 1)];
          s.frames.insert(s.frames.begin() +
                              static_cast<std::ptrdiff_t>(pick(n)),
                          copy);
        }
        break;
      case 2:  // reorder two frames
        if (n > 1) std::swap(s.frames[pick(n - 1)], s.frames[pick(n - 1)]);
        break;
      case 3: {  // a byte of a count (the first u64 of a payload)
        if (n == 0) break;
        Bytes& f = s.frames[pick(n - 1)];
        if (f.size() >= kFrameHeadBytes + sizeof(std::uint64_t)) {
          f[kFrameHeadBytes + pick(sizeof(std::uint64_t) - 1)] =
              static_cast<std::byte>(rng() & 0xFF);
        }
        break;
      }
      case 4: {  // an enum byte of one layer state (frozen or spmm_backend)
        if (n == 0) break;
        Bytes& f = s.frames[pick(n - 1)];
        if (Stream::tag(f) !=
            static_cast<std::uint16_t>(CheckpointField::LayerStates)) {
          break;
        }
        const std::size_t state = pick(7);
        const std::size_t off = kFrameHeadBytes + sizeof(std::uint64_t) +
                                state * kLayerStateBytes +
                                (rng() % 2 ? sizeof(double)
                                           : kLayerStateBytes - 1);
        if (off < f.size()) f[off] = static_cast<std::byte>(rng() % 16);
        break;
      }
      default:  // byte flip or truncation, applied to the whole body
        byte_ops.push_back(op);
    }
  }
  Bytes body = s.body();
  for (const int op : byte_ops) {
    if (op == 5 && !body.empty()) {
      body[pick(body.size() - 1)] = static_cast<std::byte>(rng() & 0xFF);
    } else {
      body.resize(pick(body.size()));
    }
  }
  return seal(std::move(body));
}

TEST(CheckpointMutation, EveryMutationThrowsOrParsesSoundly) {
  const Stream clean(sample_checkpoint().serialize());
  std::uint64_t accepted = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    std::mt19937_64 rng(seed);
    const Bytes bytes = mutate(clean, rng);
    try {
      const Checkpoint c = Checkpoint::deserialize(bytes);
      ++accepted;
      SCOPED_TRACE("seed " + std::to_string(seed));
      expect_sound(c);
      // Nothing dropped, nothing invented: the writer reproduces the
      // stream, up to field order and skipped unknown fields.
      const Bytes again = c.serialize();
      EXPECT_EQ(Bytes(again.begin(), again.end() - sizeof(std::uint64_t)),
                canonical_body(bytes));
    } catch (const Error&) {
      // The contract: a typed error.
    } catch (const std::exception& e) {
      ADD_FAILURE() << "seed " << seed << ": non-dynmo exception: "
                    << e.what();
    }
  }
  // Some corruptions are harmless (a flipped payload digit, a reorder);
  // most are not.  Both outcomes must occur.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, kSeeds);
}

}  // namespace
}  // namespace dynmo
