// In-process transport: the original World substrate, now behind the
// Transport interface.  One Mailbox per rank; send() is a queue push in the
// sender's thread, so latency is one lock acquisition and delivery order is
// trivially the send-call order per (source, tag).
#pragma once

#include <memory>
#include <vector>

#include "comm/mailbox.hpp"
#include "comm/transport.hpp"

namespace dynmo::comm {

class InProcTransport final : public Transport {
 public:
  explicit InProcTransport(int num_ranks);

  int size() const override { return static_cast<int>(mailboxes_.size()); }

  void send(int dst, Message msg) override;
  std::optional<Message> recv(int self, int context, int source,
                              Tag tag) override;
  std::optional<Message> try_recv(int self, int context, int source,
                                  Tag tag) override;
  bool closed(int self) const override;
  void shutdown() override;

 private:
  Mailbox& box(int rank) const;

  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
};

}  // namespace dynmo::comm
