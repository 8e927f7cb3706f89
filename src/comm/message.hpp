// Typed message envelope for the in-process communication substrate.
//
// Payloads are byte buffers with pack/unpack helpers for PODs and vectors,
// mirroring how MPI programs marshal derived data.  Tags disambiguate
// concurrent conversations exactly like MPI tags.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "core/error.hpp"

namespace dynmo::comm {

using Tag = std::int32_t;

/// Wildcard receive patterns (MPI_ANY_SOURCE / MPI_ANY_TAG analogues).
inline constexpr int kAnySource = -1;
inline constexpr Tag kAnyTag = INT32_MIN;

/// Well-known tags used by DynMo subsystems.  User code may use any tag
/// >= kFirstUserTag.
enum ReservedTag : Tag {
  kBcastTag = -2,
  kGatherTag = -3,
  kScatterTag = -4,
  kAllreduceTag = -5,
  kMigrationTag = -7,
  kPruneTag = -8,
  kShutdownTag = -9,
  kFirstUserTag = 0,
};

struct Message {
  int source = -1;   ///< sender rank *within the communicator's group*
  int context = 0;   ///< communicator context id (MPI communicator analogue)
  Tag tag = 0;
  std::vector<std::byte> payload;

  std::size_t size_bytes() const { return payload.size(); }
};

/// Append-only binary writer (MPI_Pack analogue).
class Packer {
 public:
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  Packer& put(const T& v) {
    const auto* p = reinterpret_cast<const std::byte*>(&v);
    buf_.insert(buf_.end(), p, p + sizeof(T));
    return *this;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  Packer& put_span(std::span<const T> xs) {
    put<std::uint64_t>(xs.size());
    if (!xs.empty()) {  // empty span may have a null data() — UB to offset
      const auto* p = reinterpret_cast<const std::byte*>(xs.data());
      buf_.insert(buf_.end(), p, p + xs.size_bytes());
    }
    return *this;
  }

  template <typename T>
  Packer& put_vector(const std::vector<T>& xs) {
    return put_span(std::span<const T>(xs));
  }

  std::vector<std::byte> take() { return std::move(buf_); }

 private:
  std::vector<std::byte> buf_;
};

/// Sequential binary reader (MPI_Unpack analogue).  Throws on overrun.
class Unpacker {
 public:
  explicit Unpacker(std::span<const std::byte> buf) : buf_(buf) {}

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T get() {
    DYNMO_CHECK(pos_ + sizeof(T) <= buf_.size(), "unpack overrun");
    T v;
    std::memcpy(&v, buf_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  /// Read a put_span() record without copying it: the count, then a view
  /// of the count × sizeof(T) bytes that follow, valid while the buffer
  /// this Unpacker reads is.  The view is bytes, not T, because a record
  /// need not be aligned for T; memcpy it out.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::span<const std::byte> get_view() {
    const auto n = get<std::uint64_t>();
    // Divide instead of multiplying: a corrupted length near 2^64/sizeof(T)
    // must overrun, not wrap around and pass the bounds check.
    DYNMO_CHECK(n <= (buf_.size() - pos_) / sizeof(T), "unpack overrun");
    const auto view = buf_.subspan(pos_, n * sizeof(T));
    pos_ += view.size();
    return view;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> get_vector() {
    const auto bytes = get_view<T>();
    std::vector<T> out(bytes.size() / sizeof(T));
    if (!out.empty()) {  // memcpy requires non-null pointers even for size 0
      std::memcpy(out.data(), bytes.data(), bytes.size());
    }
    return out;
  }

  bool exhausted() const { return pos_ == buf_.size(); }
  /// Current read offset — consumers that wrap a structured stream (e.g.
  /// the checkpoint reader) use it to report *where* a parse failed.
  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return buf_.size() - pos_; }

 private:
  std::span<const std::byte> buf_;
  std::size_t pos_ = 0;
};

}  // namespace dynmo::comm
