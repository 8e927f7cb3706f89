// Tests for checkpointing (incl. the §3.4.2 checkpoint-coordinated repack
// restart path) and timeline tracing.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "pipeline/trace.hpp"
#include "runtime/checkpoint.hpp"

namespace dynmo {
namespace {

runtime::Checkpoint sample_checkpoint() {
  runtime::Checkpoint ckpt;
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

TEST(Checkpoint, SerializeRoundTrip) {
  const auto ckpt = sample_checkpoint();
  const auto bytes = ckpt.serialize();
  const auto back = runtime::Checkpoint::deserialize(bytes);
  EXPECT_EQ(back, ckpt);
  EXPECT_EQ(back.iteration, 4242);
  EXPECT_TRUE(back.layer_states[1].frozen);
  EXPECT_EQ(back.weights.at(7).cols(), 2u);
}

TEST(Checkpoint, DetectsCorruption) {
  auto bytes = sample_checkpoint().serialize();
  bytes[bytes.size() / 2] ^= std::byte{0x01};
  EXPECT_THROW((void)runtime::Checkpoint::deserialize(bytes), Error);
}

TEST(Checkpoint, RejectsTruncation) {
  auto bytes = sample_checkpoint().serialize();
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW((void)runtime::Checkpoint::deserialize(bytes), Error);
}

TEST(Checkpoint, RejectsForeignMagic) {
  std::vector<std::byte> junk(64, std::byte{0x5a});
  EXPECT_THROW((void)runtime::Checkpoint::deserialize(junk), Error);
}

/// One [u16 tag][u64 size][payload] frame of the v2 stream
/// (docs/RUNTIME.md byte-layout table).
struct FieldFrame {
  std::uint16_t tag = 0;
  std::size_t frame_off = 0;    ///< where the tag starts
  std::size_t payload_off = 0;  ///< where the payload starts
  std::size_t size = 0;
};

std::vector<FieldFrame> walk_frames(const std::vector<std::byte>& bytes) {
  std::vector<FieldFrame> out;
  const std::size_t body = bytes.size() - sizeof(std::uint64_t);
  std::size_t pos = 2 * sizeof(std::uint32_t);  // magic + version
  while (pos < body) {
    FieldFrame f;
    f.frame_off = pos;
    std::memcpy(&f.tag, bytes.data() + pos, sizeof(f.tag));
    pos += sizeof(f.tag);
    std::uint64_t sz = 0;
    std::memcpy(&sz, bytes.data() + pos, sizeof(sz));
    pos += sizeof(sz);
    f.payload_off = pos;
    f.size = static_cast<std::size_t>(sz);
    pos += f.size;
    out.push_back(f);
  }
  return out;
}

TEST(Checkpoint, StreamCarriesEveryTaggedField) {
  const auto bytes = sample_checkpoint().serialize();
  const auto frames = walk_frames(bytes);
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_EQ(frames[0].tag,
            static_cast<std::uint16_t>(runtime::CheckpointField::Iteration));
  EXPECT_EQ(frames[1].tag,
            static_cast<std::uint16_t>(runtime::CheckpointField::StageMap));
  EXPECT_EQ(frames[2].tag, static_cast<std::uint16_t>(
                               runtime::CheckpointField::LayerStates));
  EXPECT_EQ(frames[3].tag,
            static_cast<std::uint16_t>(runtime::CheckpointField::Weights));
  // Frames tile the body exactly.
  EXPECT_EQ(frames.back().payload_off + frames.back().size,
            bytes.size() - sizeof(std::uint64_t));
}

TEST(Checkpoint, CorruptionAtEveryFieldBoundaryIsCaught) {
  const auto clean = sample_checkpoint().serialize();
  const auto frames = walk_frames(clean);
  ASSERT_EQ(frames.size(), 4u);
  for (const auto& f : frames) {
    // Flip a byte in the tag, in the size, and in the payload of every
    // field — all must throw (field/offset error or checksum mismatch),
    // never parse to a wrong checkpoint or crash.
    for (const std::size_t off :
         {f.frame_off, f.frame_off + 2, f.payload_off}) {
      auto bytes = clean;
      bytes[off] ^= std::byte{0xff};
      EXPECT_THROW((void)runtime::Checkpoint::deserialize(bytes), Error)
          << "field tag " << f.tag << " byte " << off;
    }
  }
}

TEST(Checkpoint, HugeCorruptedCountsThrowErrorNotBadAlloc) {
  // Structure is validated before the checksum, so corrupted counts and
  // shapes reach the parser: they must fail the payload bound as a
  // dynmo::Error — never as std::length_error or a multi-PB allocation.
  const auto clean = sample_checkpoint().serialize();
  const auto frames = walk_frames(clean);
  // Flip the HIGH byte of the layer_states count (payload offset +7)...
  {
    auto bytes = clean;
    bytes[frames[2].payload_off + 7] ^= std::byte{0x40};
    EXPECT_THROW((void)runtime::Checkpoint::deserialize(bytes), Error);
  }
  // ...of the weights count...
  {
    auto bytes = clean;
    bytes[frames[3].payload_off + 7] ^= std::byte{0x40};
    EXPECT_THROW((void)runtime::Checkpoint::deserialize(bytes), Error);
  }
  // ...and of a weight entry's row count (first entry: u64 layer at +8,
  // rows at +16) — the rows*cols product must not wrap past 2^64 into a
  // passing shape check.
  {
    auto bytes = clean;
    bytes[frames[3].payload_off + 16 + 7] ^= std::byte{0x40};
    EXPECT_THROW((void)runtime::Checkpoint::deserialize(bytes), Error);
  }
}

TEST(Checkpoint, TruncationAtEveryFieldBoundaryIsCaught) {
  const auto clean = sample_checkpoint().serialize();
  for (const auto& f : walk_frames(clean)) {
    for (const std::size_t cut :
         {f.frame_off + 1, f.payload_off, f.payload_off + f.size / 2}) {
      auto bytes = clean;
      bytes.resize(cut);
      EXPECT_THROW((void)runtime::Checkpoint::deserialize(bytes), Error)
          << "field tag " << f.tag << " cut at " << cut;
    }
  }
}

TEST(Checkpoint, DeserializeNamesTheFailingFieldAndOffset) {
  // Corrupt the stage_map payload into non-monotone boundaries: the
  // structural parse must fail *inside* that field and say so, rather
  // than surface a generic checksum error.
  const auto clean = sample_checkpoint().serialize();
  const auto frames = walk_frames(clean);
  const auto& sm = frames[1];
  auto bytes = clean;
  // Payload layout: u64 count, then the boundary values; clobber the
  // second boundary (offset 8 + 8) with a huge value.
  const std::uint64_t huge = ~0ull;
  std::memcpy(bytes.data() + sm.payload_off + 16, &huge, sizeof(huge));
  try {
    (void)runtime::Checkpoint::deserialize(bytes);
    FAIL() << "corrupt stage_map deserialized";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("stage_map"), std::string::npos) << what;
    EXPECT_NE(what.find("offset"), std::string::npos) << what;
  }
}

TEST(Checkpoint, VersionBumpIsRejectedWithTheVersionNamed) {
  auto bytes = sample_checkpoint().serialize();
  const std::uint32_t future = runtime::Checkpoint::kVersion + 1;
  std::memcpy(bytes.data() + sizeof(std::uint32_t), &future, sizeof(future));
  try {
    (void)runtime::Checkpoint::deserialize(bytes);
    FAIL() << "future version deserialized";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(future)), std::string::npos) << what;
  }
}

TEST(Checkpoint, RoundTripAcrossWorkerCounts) {
  // The elastic lifecycle restarts the same checkpoint onto shrinking and
  // growing worker counts; serialization must be lossless at every one.
  for (const int workers : {1, 2, 3, 5, 8}) {
    auto resharded = sample_checkpoint();
    resharded.stage_map = pipeline::StageMap::uniform(8, workers);
    const auto back =
        runtime::Checkpoint::deserialize(resharded.serialize());
    EXPECT_EQ(back, resharded) << workers << " workers";
  }
}

TEST(Trace, EventsCoverAllWork) {
  pipeline::StageCosts costs(3, 4);
  for (int s = 0; s < 3; ++s) costs.set_stage(s, 1.0, 0.5, 0.5);
  const auto [result, trace] =
      pipeline::simulate_traced(pipeline::ScheduleKind::ZbH1, costs);
  EXPECT_EQ(trace.makespan_s, result.makespan_s);
  std::vector<double> busy(3, 0.0);
  for (const auto& e : trace.events) {
    busy[static_cast<std::size_t>(e.stage)] += e.duration_s;
  }
  for (int s = 0; s < 3; ++s) {
    EXPECT_NEAR(busy[static_cast<std::size_t>(s)],
                result.busy_s[static_cast<std::size_t>(s)], 1e-12);
  }
  // ZB emits F, B and W events.
  bool f = false, b = false, w = false;
  for (const auto& e : trace.events) {
    f |= e.kind == 'F';
    b |= e.kind == 'B';
    w |= e.kind == 'W';
    EXPECT_GE(e.start_s, 0.0);
    EXPECT_LE(e.start_s + e.duration_s, result.makespan_s + 1e-12);
  }
  EXPECT_TRUE(f && b && w);
}

TEST(Trace, EventsNeverOverlapWithinStage) {
  pipeline::StageCosts costs(4, 8);
  Rng rng(3);
  for (int s = 0; s < 4; ++s) {
    for (int mb = 0; mb < 8; ++mb) {
      costs.fwd(s, mb) = rng.uniform(0.1, 1.0);
      costs.bwd_input(s, mb) = rng.uniform(0.1, 1.0);
      costs.bwd_weight(s, mb) = rng.uniform(0.1, 1.0);
    }
  }
  const auto [result, trace] =
      pipeline::simulate_traced(pipeline::ScheduleKind::OneFOneB, costs);
  for (int s = 0; s < 4; ++s) {
    std::vector<std::pair<double, double>> spans;
    for (const auto& e : trace.events) {
      if (e.stage == s) spans.emplace_back(e.start_s, e.duration_s);
    }
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i) {
      EXPECT_GE(spans[i].first,
                spans[i - 1].first + spans[i - 1].second - 1e-12);
    }
  }
}

TEST(Trace, ChromeJsonWellFormedish) {
  pipeline::StageCosts costs(2, 2);
  costs.set_stage(0, 1.0, 1.0, 0.0);
  costs.set_stage(1, 1.0, 1.0, 0.0);
  const auto [result, trace] =
      pipeline::simulate_traced(pipeline::ScheduleKind::GPipe, costs);
  const auto json = trace.to_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  // File write path.
  const auto path = std::filesystem::temp_directory_path() /
                    "dynmo_trace_test.json";
  trace.write_chrome_json(path.string());
  EXPECT_GT(std::filesystem::file_size(path), 10u);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace dynmo
