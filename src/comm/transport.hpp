// comm::Transport: the pluggable message substrate under World/Communicator.
//
// A Transport owns one *endpoint* per global rank.  Everything above it —
// Communicator handles, the collectives (binomial broadcast,
// allgather-based allreduce), split(), the threaded runtime, the elastic
// restart path, and the fault-recovery machinery — is written
// against this interface only, so swapping the backend can never change
// observable behavior (the conformance suite in
// tests/test_transport_conformance.cpp and the golden-trace CI gate hold
// every backend to that).
//
// Delivery contract (docs/TRANSPORT.md):
//   * tagged, matched receives: a message is only returned to a receive
//     whose (context, source, tag) pattern matches, with wildcard source
//     (kAnySource) and tag (kAnyTag);
//   * FIFO per (context, source, tag): two messages sent by the same rank
//     on the same communicator with the same tag are received in send
//     order.  No ordering is promised across sources or tags;
//   * context isolation: a message sent on one communicator (context) is
//     never returned on another, even for wildcard patterns;
//   * close/shutdown releases blocked receivers: recv() on a closed
//     endpoint returns nullopt once no matching message is queued (the
//     Communicator layer turns that into CommError), and try_recv() on a
//     closed-and-drained endpoint reports closure instead of "try again"
//     — a poll loop must never spin forever against a dead world;
//   * sends never fail: a send to a closed endpoint is silently dropped
//     (MPI_Send to a finalized peer is undefined; we pick the semantics
//     that lets shutdown race in-flight traffic safely).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "comm/message.hpp"

namespace dynmo::comm {

/// Which backend a World runs its endpoints on.
enum class TransportKind {
  /// In-process mailboxes: one lock+condvar queue per rank, delivery is a
  /// queue push in the sender's thread.  The default, and the fastest.
  InProc,
  /// Unix-domain socketpairs: ranks exchange length-prefixed frames over
  /// real file descriptors — the same wire framing a future multi-process
  /// (MPI/UCX) backend will speak, exercised while ranks are still
  /// threads.
  Socket,
};

const char* to_string(TransportKind kind);
/// Parse "inproc" / "socket" (as accepted by --transport flags); throws
/// dynmo::Error on anything else.
TransportKind parse_transport(std::string_view name);

class Transport {
 public:
  virtual ~Transport() = default;

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Number of endpoints (global ranks).
  virtual int size() const = 0;

  /// Deliver `msg` to `dst`'s endpoint.  msg.source is the sender's rank
  /// *within its communicator group* and msg.context the communicator id
  /// — the transport routes on the global `dst` only and never inspects
  /// them beyond matching.  Thread-safe; never throws on a closed
  /// destination (the message is dropped).
  virtual void send(int dst, Message msg) = 0;

  /// Blocking matched receive on `self`'s endpoint.  Returns nullopt only
  /// when the endpoint is closed and no matching message is queued.
  virtual std::optional<Message> recv(int self, int context, int source,
                                      Tag tag) = 0;

  /// Non-blocking matched receive.  Distinguishes "nothing yet" (nullopt,
  /// endpoint open) from "never" — callers that must not spin against a
  /// closed endpoint check closed() when this returns nullopt.
  virtual std::optional<Message> try_recv(int self, int context, int source,
                                          Tag tag) = 0;

  /// Whether `self`'s endpoint is closed: its blocked receivers are woken
  /// and later receives of unmatched patterns report closure.
  virtual bool closed(int self) const = 0;

  /// Close every endpoint (World::shutdown).  Idempotent; must leave the
  /// transport safe against concurrent sends and receives.
  virtual void shutdown() = 0;

  // --- traffic accounting (for overhead trajectories) -------------------
  std::uint64_t bytes_sent() const {
    return bytes_sent_.load(std::memory_order_relaxed);
  }
  std::uint64_t messages_sent() const {
    return messages_sent_.load(std::memory_order_relaxed);
  }

 protected:
  Transport() = default;

  /// Backends call this once per accepted send, counting payload bytes
  /// (not framing overhead), so counters are comparable across backends.
  void count_send(std::size_t payload_bytes) {
    bytes_sent_.fetch_add(payload_bytes, std::memory_order_relaxed);
    messages_sent_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> messages_sent_{0};
};

/// Factory: the one switch point backends are selected through.
std::unique_ptr<Transport> make_transport(TransportKind kind, int num_ranks);

}  // namespace dynmo::comm
