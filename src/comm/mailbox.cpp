#include "comm/mailbox.hpp"

namespace dynmo::comm {

void Mailbox::deliver(Message msg) {
  {
    std::scoped_lock lock(mu_);
    // A closed mailbox drops deliveries instead of enqueueing them — the
    // socket backend physically cannot deliver past close (the descriptor
    // is shut down), so the in-proc backend must not either, or the two
    // would diverge on sends that race shutdown.
    if (closed_) return;
    queue_.push_back(std::move(msg));
  }
  cv_.notify_all();
}

std::optional<Message> Mailbox::take_locked(int context, int source, Tag tag) {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (matches(*it, context, source, tag)) {
      Message m = std::move(*it);
      queue_.erase(it);
      return m;
    }
  }
  return std::nullopt;
}

std::optional<Message> Mailbox::recv(int context, int source, Tag tag) {
  std::unique_lock lock(mu_);
  for (;;) {
    if (auto m = take_locked(context, source, tag)) return m;
    if (closed_) return std::nullopt;
    cv_.wait(lock);
  }
}

std::optional<Message> Mailbox::try_recv(int context, int source, Tag tag) {
  std::scoped_lock lock(mu_);
  return take_locked(context, source, tag);
}

void Mailbox::close() {
  {
    std::scoped_lock lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

bool Mailbox::closed() const {
  std::scoped_lock lock(mu_);
  return closed_;
}

}  // namespace dynmo::comm
