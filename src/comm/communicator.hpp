// Transport-agnostic communicator: the NCCL/MPI substitute.
//
// A World owns one comm::Transport — the pluggable message substrate with
// one endpoint per global rank (see transport.hpp for the backends).  A
// Communicator is a view over a subset of global ranks (a *group*) with its
// own context id, exactly like an MPI communicator: messages sent on one
// communicator can never be received on another.  split() implements
// MPI_Comm_split / ncclCommSplit semantics — this is what DynMo's re-packing
// uses to fence released GPUs off from the active training communicator
// (paper §3.4.2).
//
// Collectives are implemented over P2P with standard algorithms (binomial
// broadcast, ring allreduce) so that their message
// pattern — and hence their modeled cost — matches what NCCL would do.
// Nothing here touches a backend directly: every byte flows through the
// Transport interface, which is what the cross-backend conformance suite
// and the golden-trace CI gate rely on.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "comm/message.hpp"
#include "comm/transport.hpp"

namespace dynmo::comm {

class Communicator;

/// Process-wide rank universe.  Create one World per training job; spawn one
/// thread per rank and hand each thread its Communicator from world_comm().
class World {
 public:
  explicit World(int num_ranks,
                 TransportKind transport = TransportKind::InProc);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  int size() const { return transport_->size(); }

  /// Which backend this world runs on (recorded in telemetry catalogs).
  TransportKind transport_kind() const { return kind_; }

  /// The communicator spanning all ranks (MPI_COMM_WORLD analogue); one
  /// handle per rank.
  Communicator world_comm(int global_rank);

  /// Close every endpoint, releasing any blocked receiver.
  void shutdown();

  /// Total payload bytes ever sent through this world (overhead accounting).
  std::uint64_t bytes_sent() const { return transport_->bytes_sent(); }
  /// Total messages ever sent.
  std::uint64_t messages_sent() const { return transport_->messages_sent(); }

 private:
  friend class Communicator;
  int next_context();

  TransportKind kind_;
  std::unique_ptr<Transport> transport_;
  std::atomic<int> next_context_{1};
};

/// A rank's handle onto a group.  Cheap to copy (shared group).
class Communicator {
 public:
  int rank() const { return rank_; }
  int size() const { return static_cast<int>(group_->size()); }
  int context() const { return context_; }
  int global_rank() const { return (*group_)[static_cast<std::size_t>(rank_)]; }
  /// Global rank of a member of this communicator's group.
  int global_rank_of(int rank) const;
  World& world() const { return *world_; }

  // --- point-to-point --------------------------------------------------
  void send(int dst, Tag tag, std::vector<std::byte> payload) const;
  /// Convenience: pack a single trivially-copyable value.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void send_value(int dst, Tag tag, const T& v) const {
    Packer p;
    p.put(v);
    send(dst, tag, p.take());
  }
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void send_vector(int dst, Tag tag, const std::vector<T>& xs) const {
    Packer p;
    p.put_vector(xs);
    send(dst, tag, p.take());
  }

  /// Blocking receive; throws CommError if the world shut down.
  Message recv(int src = kAnySource, Tag tag = kAnyTag) const;
  /// Non-blocking receive.  nullopt means "nothing matching yet"; once this
  /// rank's endpoint is closed and drained it throws CommError instead, so
  /// poll loops terminate on shutdown exactly like blocked recv() calls do.
  std::optional<Message> try_recv(int src = kAnySource,
                                  Tag tag = kAnyTag) const;
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T recv_value(int src, Tag tag) const {
    const Message m = recv(src, tag);
    Unpacker u(m.payload);
    return u.get<T>();
  }
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> recv_vector(int src, Tag tag) const {
    const Message m = recv(src, tag);
    Unpacker u(m.payload);
    return u.get_vector<T>();
  }

  // --- collectives (every member must call) ----------------------------
  /// Broadcast `data` from root to all; non-roots receive into return value.
  std::vector<std::byte> broadcast(std::vector<std::byte> data,
                                   int root) const;
  /// Gather each rank's buffer at root (root gets size() buffers, in rank
  /// order; non-roots get empty).
  std::vector<std::vector<std::byte>> gather(std::vector<std::byte> mine,
                                             int root) const;
  /// Scatter: root provides size() buffers; each rank receives its own.
  std::vector<std::byte> scatter(std::vector<std::vector<std::byte>> bufs,
                                 int root) const;
  /// All-gather of equally-typed double vectors (the balancers exchange
  /// per-layer times this way).
  std::vector<std::vector<double>> allgather_doubles(
      std::vector<double> mine) const;
  /// Element-wise sum allreduce over doubles (ring algorithm).
  std::vector<double> allreduce_sum(std::vector<double> mine) const;

  // --- communicator management -----------------------------------------
  /// MPI_Comm_split: ranks with the same color form a new communicator,
  /// ordered by (key, old rank).  color < 0 → the rank gets no communicator
  /// (returns nullopt), mirroring NCCL_SPLIT_NOCOLOR.
  std::optional<Communicator> split(int color, int key) const;

 private:
  friend class World;
  Communicator(World* world, std::shared_ptr<const std::vector<int>> group,
               int rank, int context)
      : world_(world), group_(std::move(group)), rank_(rank),
        context_(context) {}

  Transport& transport() const { return *world_->transport_; }

  World* world_;
  std::shared_ptr<const std::vector<int>> group_;  // member global ranks
  int rank_;
  int context_;
};

}  // namespace dynmo::comm
