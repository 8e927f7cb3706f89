#include "comm/socket_transport.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>

#include "core/error.hpp"

namespace dynmo::comm {

namespace {

constexpr std::uint32_t kFrameMagic = 0x4D4E5944;  // "DYNM" little-endian

struct FrameHeader {
  std::uint32_t magic;
  std::int32_t source;
  std::int32_t context;
  std::int32_t tag;
  std::uint64_t payload_len;
};
static_assert(sizeof(FrameHeader) == 24, "frame header is 24 bytes on wire");

/// Largest payload a frame may announce.
constexpr std::uint64_t kMaxFramePayload = std::uint64_t{1} << 30;  // 1 GiB
/// How far the reader grows a payload buffer ahead of the bytes read.
constexpr std::size_t kPayloadChunk = std::size_t{1} << 16;  // 64 KiB

/// Write exactly `len` bytes.  Returns false if the peer is gone (EPIPE /
/// ECONNRESET / shutdown descriptor) — the send contract is to drop, not
/// throw, so callers ignore a false return.
bool write_full(int fd, const std::byte* buf, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, buf, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    buf += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Read exactly `len` bytes.  Returns false on EOF or error (endpoint was
/// shut down) — partial frames at shutdown are discarded.
bool read_full(int fd, std::byte* buf, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::recv(fd, buf, len, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;  // orderly EOF
    buf += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Read a `len`-byte payload into `buf` one chunk at a time, so a corrupt
/// length costs a wait for bytes, never an allocation of the announced
/// size.  Returns false on EOF or error, like read_full.
bool read_payload(int fd, std::vector<std::byte>& buf, std::uint64_t len) {
  while (buf.size() < len) {
    const std::size_t have = buf.size();
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(kPayloadChunk, len - have));
    buf.resize(have + n);
    if (!read_full(fd, buf.data() + have, n)) return false;
  }
  return true;
}

}  // namespace

SocketTransport::SocketTransport(int num_ranks) {
  DYNMO_CHECK(num_ranks > 0, "transport needs at least one rank");
  endpoints_.reserve(static_cast<std::size_t>(num_ranks));
  for (int i = 0; i < num_ranks; ++i) {
    auto ep = std::make_unique<Endpoint>();
    int sp[2];
    DYNMO_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp) == 0,
                "socketpair failed for rank " << i << ": "
                                              << std::strerror(errno));
    ep->recv_fd = sp[0];
    ep->send_fd = sp[1];
    endpoints_.push_back(std::move(ep));
  }
  // Readers start only after every endpoint exists, so a reader can never
  // observe a half-built transport.
  for (int i = 0; i < num_ranks; ++i) {
    endpoints_[static_cast<std::size_t>(i)]->reader =
        std::thread([this, i] { reader_main(i); });
  }
}

SocketTransport::~SocketTransport() {
  shutdown();
  for (auto& ep : endpoints_) {
    if (ep->reader.joinable()) ep->reader.join();
    ::close(ep->send_fd);
    ::close(ep->recv_fd);
  }
}

SocketTransport::Endpoint& SocketTransport::endpoint(int rank) const {
  DYNMO_CHECK(rank >= 0 && rank < size(),
              "global rank " << rank << " out of range [0," << size() << ")");
  return *endpoints_[static_cast<std::size_t>(rank)];
}

void SocketTransport::reader_main(int self) {
  Endpoint& ep = endpoint(self);
  for (;;) {
    FrameHeader h;
    if (!read_full(ep.recv_fd, reinterpret_cast<std::byte*>(&h), sizeof h)) {
      break;  // endpoint shut down (or torn frame at shutdown)
    }
    // Corrupt stream: fail stop.  Sources are ranks of a communicator,
    // which never outgrows the world; contexts are non-negative ids.
    if (h.magic != kFrameMagic || h.source < 0 || h.source >= size() ||
        h.context < 0 || h.payload_len > kMaxFramePayload) {
      break;
    }
    Message msg;
    msg.source = h.source;
    msg.context = h.context;
    msg.tag = h.tag;
    if (!read_payload(ep.recv_fd, msg.payload, h.payload_len)) break;
    ep.inbox.deliver(std::move(msg));
  }
  // Reader exit == endpoint closed: release any blocked receiver with
  // CommError, and shut the descriptors so later senders drop instead of
  // filling a socket nobody drains.  (close() is idempotent; on a normal
  // shutdown it already ran.)
  close(self);
}

void SocketTransport::send(int dst, Message msg) {
  DYNMO_CHECK(msg.payload.size() <= kMaxFramePayload,
              "payload of " << msg.payload.size()
                            << " bytes exceeds the socket frame limit");
  // Count every send attempt, like the in-proc backend, so byte/message
  // counters agree across backends even when shutdown races a send.
  count_send(msg.payload.size());
  Endpoint& ep = endpoint(dst);
  FrameHeader h;
  h.magic = kFrameMagic;
  h.source = msg.source;
  h.context = msg.context;
  h.tag = msg.tag;
  h.payload_len = msg.payload.size();
  // One contiguous buffer per frame: a single write_full under the lock
  // keeps the frame atomic against other senders to the same endpoint.
  std::vector<std::byte> frame(sizeof h + msg.payload.size());
  std::memcpy(frame.data(), &h, sizeof h);
  if (!msg.payload.empty()) {
    std::memcpy(frame.data() + sizeof h, msg.payload.data(),
                msg.payload.size());
  }
  std::scoped_lock lock(ep.send_mu);
  (void)write_full(ep.send_fd, frame.data(), frame.size());  // drop if closed
}

std::optional<Message> SocketTransport::recv(int self, int context, int source,
                                             Tag tag) {
  return endpoint(self).inbox.recv(context, source, tag);
}

std::optional<Message> SocketTransport::try_recv(int self, int context,
                                                 int source, Tag tag) {
  return endpoint(self).inbox.try_recv(context, source, tag);
}

void SocketTransport::close(int self) {
  Endpoint& ep = endpoint(self);
  if (ep.closing.exchange(true)) return;
  // Order matters: close the inbox first so blocked receivers release
  // immediately, then shut the descriptors so the reader exits and senders
  // start getting EPIPE (dropped sends).
  ep.inbox.close();
  ::shutdown(ep.send_fd, SHUT_RDWR);
  ::shutdown(ep.recv_fd, SHUT_RDWR);
}

bool SocketTransport::closed(int self) const {
  return endpoint(self).inbox.closed();
}

void SocketTransport::shutdown() {
  for (int r = 0; r < size(); ++r) close(r);
}

}  // namespace dynmo::comm
