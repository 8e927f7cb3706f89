#include "comm/inproc_transport.hpp"

#include "core/error.hpp"

namespace dynmo::comm {

InProcTransport::InProcTransport(int num_ranks) {
  DYNMO_CHECK(num_ranks > 0, "transport needs at least one rank");
  mailboxes_.reserve(static_cast<std::size_t>(num_ranks));
  for (int i = 0; i < num_ranks; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
}

Mailbox& InProcTransport::box(int rank) const {
  DYNMO_CHECK(rank >= 0 && rank < size(),
              "global rank " << rank << " out of range [0," << size() << ")");
  return *mailboxes_[static_cast<std::size_t>(rank)];
}

void InProcTransport::send(int dst, Message msg) {
  count_send(msg.payload.size());
  box(dst).deliver(std::move(msg));
}

std::optional<Message> InProcTransport::recv(int self, int context, int source,
                                             Tag tag) {
  return box(self).recv(context, source, tag);
}

std::optional<Message> InProcTransport::try_recv(int self, int context,
                                                 int source, Tag tag) {
  return box(self).try_recv(context, source, tag);
}

bool InProcTransport::closed(int self) const { return box(self).closed(); }

void InProcTransport::shutdown() {
  for (auto& mb : mailboxes_) mb->close();
}

}  // namespace dynmo::comm
