// Socket transport: ranks exchange length-prefixed frames over Unix-domain
// socketpairs.  Still one process (ranks are threads), but every message
// crosses a real kernel descriptor in the exact wire format a future
// multi-process (MPI/UCX) backend would speak — so the conformance suite and
// the golden-trace gate exercise serialization, framing, partial reads, and
// shutdown-vs-inflight races that the in-proc queue can never produce.
//
// Topology: one socketpair per rank.  sp[0] is the receive side, drained by
// that rank's dedicated reader thread; sp[1] is the send side, shared by all
// senders under a per-endpoint mutex so frames interleave only at frame
// boundaries.  The reader demultiplexes frames into a Mailbox, which
// provides the same (context, source, tag) matching, wildcard, and FIFO
// semantics as the in-proc backend — delivery policy is shared code, only
// the carrier differs.
//
// Wire frame (little-endian, docs/TRANSPORT.md):
//   [u32 magic 'DYNM'][i32 source][i32 context][i32 tag][u64 payload_len]
//   [payload_len bytes]
// 24-byte header; payload is the Packer buffer verbatim.
#pragma once

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "comm/mailbox.hpp"
#include "comm/transport.hpp"

namespace dynmo::comm {

class SocketTransport final : public Transport {
 public:
  explicit SocketTransport(int num_ranks);
  ~SocketTransport() override;

  int size() const override { return static_cast<int>(endpoints_.size()); }

  void send(int dst, Message msg) override;
  std::optional<Message> recv(int self, int context, int source,
                              Tag tag) override;
  std::optional<Message> try_recv(int self, int context, int source,
                                  Tag tag) override;
  bool closed(int self) const override;
  void shutdown() override;

 private:
  /// Close one endpoint: wakes its blocked receivers.  Idempotent.
  void close(int self);

  struct Endpoint {
    int send_fd = -1;  ///< written by any sender, serialized by send_mu
    int recv_fd = -1;  ///< read only by this endpoint's reader thread
    std::mutex send_mu;
    std::thread reader;
    Mailbox inbox;                    ///< matching/FIFO/wildcard semantics
    std::atomic<bool> closing{false};  ///< close() entered (idempotence)
  };

  Endpoint& endpoint(int rank) const;
  void reader_main(int self);

  std::vector<std::unique_ptr<Endpoint>> endpoints_;
};

}  // namespace dynmo::comm
