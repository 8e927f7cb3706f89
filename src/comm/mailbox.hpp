// Per-rank mailbox: a thread-safe inbox with (source, tag) matching,
// modeling an MPI receive queue.  recv() blocks until a matching message
// arrives (or the mailbox is closed), supporting wildcard source/tag.
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>

#include "comm/message.hpp"

namespace dynmo::comm {

class Mailbox {
 public:
  /// Deliver a message (called by the sender's thread).
  void deliver(Message msg);

  /// Blocking matched receive.  Returns nullopt if the mailbox was closed
  /// and no matching message will ever arrive.  `context` is matched
  /// exactly — messages from other communicators are never returned.
  std::optional<Message> recv(int context, int source = kAnySource,
                              Tag tag = kAnyTag);

  /// Non-blocking probe-and-take.
  std::optional<Message> try_recv(int context, int source = kAnySource,
                                  Tag tag = kAnyTag);

  /// Close: wakes all blocked receivers; subsequent recv of unmatched
  /// patterns returns nullopt.
  void close();
  bool closed() const;

 private:
  static bool matches(const Message& m, int context, int source, Tag tag) {
    return m.context == context &&
           (source == kAnySource || m.source == source) &&
           (tag == kAnyTag || m.tag == tag);
  }
  std::optional<Message> take_locked(int context, int source, Tag tag);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Message> queue_;
  bool closed_ = false;
};

}  // namespace dynmo::comm
