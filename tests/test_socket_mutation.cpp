// Seeded mutation test for the socket transport's wire frames: the bytes a
// reader thread parses come from outside the process, so no corruption of
// a frame header or payload may crash it, make it allocate more than the
// bytes that actually arrived, or end a receive in anything but a typed
// error.
//
// Each seed builds a stream of two to four valid frames (a packed vector
// of doubles to world rank 0), corrupts it — byte flips, header fields set
// to edge values, truncation, span duplication, inserted bytes — writes it
// into a fresh one-rank World's socketpair and closes the writing side.
// The receiver then takes messages until the endpoint closes: each one
// either unpacks or throws dynmo::Error, and the loop must end in
// CommError.  An iteration's corruption depends on its seed alone, and
// every failure names the seed; a crash names it too (on stderr, from a
// signal handler or the sanitizer death callback).
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <new>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "core/error.hpp"

extern "C" void __sanitizer_set_death_callback(void (*)(void))
    __attribute__((weak));

namespace {

/// Largest single allocation requested while `g_tracking` is set.
std::atomic<std::size_t> g_peak_alloc{0};
std::atomic<bool> g_tracking{false};
/// A request this large is the failure the sweep looks for: refuse it
/// rather than touch that much memory.
constexpr std::size_t kRefuseAlloc = std::size_t{256} << 20;

}  // namespace

// GCC flags free() on operator new's pointer as a mismatch; both sides of
// this replacement pair are malloc/free, which is what the standard asks.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t n) {
  if (g_tracking.load(std::memory_order_relaxed)) {
    std::size_t prev = g_peak_alloc.load(std::memory_order_relaxed);
    while (n > prev && !g_peak_alloc.compare_exchange_weak(prev, n)) {
    }
    if (n >= kRefuseAlloc) throw std::bad_alloc();
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace dynmo::comm {
namespace {

constexpr std::uint64_t kSeeds = 2000;
/// The sweep's streams are a few KiB; the reader may round a chunk up, but
/// nothing near an announced length it never received.
constexpr std::size_t kMaxAlloc = std::size_t{1} << 20;

struct Header {  // the 24-byte wire header (docs/TRANSPORT.md)
  std::uint32_t magic;
  std::int32_t source;
  std::int32_t context;
  std::int32_t tag;
  std::uint64_t payload_len;
};
static_assert(sizeof(Header) == 24);
constexpr std::uint32_t kMagic = 0x4D4E5944;  // "DYNM"

volatile std::sig_atomic_t g_seed = 0;

void report_seed() {
  char buf[64];
  const int n = std::snprintf(buf, sizeof buf, "\nsocket mutation seed %lu\n",
                              static_cast<unsigned long>(g_seed));
  if (n > 0) (void)::write(2, buf, static_cast<std::size_t>(n));
}

void report_seed_and_die(int sig) {
  report_seed();
  std::raise(sig);  // SA_RESETHAND: delivered with the default action
}

/// Name the seed on any crash.  Under a sanitizer its own report (with a
/// stack) is worth keeping, so hook its death callback instead of signals.
void install_crash_reporter() {
  if (__sanitizer_set_death_callback != nullptr) {
    __sanitizer_set_death_callback(report_seed);
    return;
  }
  struct sigaction sa {};
  sa.sa_handler = report_seed_and_die;
  sa.sa_flags = SA_RESETHAND;
  for (int sig : {SIGSEGV, SIGBUS, SIGABRT, SIGFPE, SIGILL}) {
    ::sigaction(sig, &sa, nullptr);
  }
}

/// Every socket descriptor currently open in this process.
std::set<int> open_sockets() {
  std::set<int> fds;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/fd")) {
    const int fd = std::stoi(e.path().filename().string());
    struct stat st {};
    if (::fstat(fd, &st) == 0 && S_ISSOCK(st.st_mode)) fds.insert(fd);
  }
  return fds;
}

/// A valid stream of frames to world rank 0 on `context`, each carrying a
/// packed vector of doubles; `payloads` gets the vectors, `headers` the
/// byte offset of every frame header.
std::vector<std::byte> make_stream(std::mt19937_64& rng, int context,
                                   std::vector<std::vector<double>>& payloads,
                                   std::vector<std::size_t>& headers) {
  std::vector<std::byte> stream;
  const int frames = 2 + static_cast<int>(rng() % 3);
  for (int f = 0; f < frames; ++f) {
    std::vector<double> xs(rng() % 33);
    for (auto& x : xs) x = static_cast<double>(rng() % 1000) * 0.25;
    Packer p;
    p.put_vector(xs);
    const std::vector<std::byte> body = p.take();
    const Header h{kMagic, 0, context, static_cast<std::int32_t>(rng() % 8),
                   body.size()};
    headers.push_back(stream.size());
    const auto* hb = reinterpret_cast<const std::byte*>(&h);
    stream.insert(stream.end(), hb, hb + sizeof h);
    stream.insert(stream.end(), body.begin(), body.end());
    payloads.push_back(std::move(xs));
  }
  return stream;
}

/// Overwrite one header field of the frame at `at` with an edge value.
void corrupt_header(std::vector<std::byte>& s, std::size_t at,
                    std::mt19937_64& rng) {
  const auto poke = [&s, at](std::size_t offset, auto value) {
    std::memcpy(s.data() + at + offset, &value, sizeof value);
  };
  using I32 = std::numeric_limits<std::int32_t>;
  const std::int32_t i32[] = {0, 1, -1, I32::min(), I32::max(),
                              static_cast<std::int32_t>(rng())};
  const std::uint64_t remaining = s.size() - at - sizeof(Header);
  const std::uint64_t len[] = {0,
                               remaining,
                               remaining + 1 + rng() % 64,
                               (std::uint64_t{1} << 30) - 1,
                               std::uint64_t{1} << 30,
                               (std::uint64_t{1} << 30) + 1,
                               std::uint64_t{1} << 32,
                               ~std::uint64_t{0},
                               rng() % (std::uint64_t{1} << 30),
                               rng()};
  switch (rng() % 5) {
    case 0: poke(0, static_cast<std::uint32_t>(rng())); break;  // magic
    case 1: poke(4, i32[rng() % std::size(i32)]); break;        // source
    case 2: poke(8, i32[rng() % std::size(i32)]); break;        // context
    case 3: poke(12, i32[rng() % std::size(i32)]); break;       // tag
    default: poke(16, len[rng() % std::size(len)]);             // length
  }
}

/// One to three random corruptions of `s`.
void mutate(std::vector<std::byte>& s, const std::vector<std::size_t>& headers,
            std::mt19937_64& rng) {
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % (n + 1));
  };
  const int rounds = 1 + static_cast<int>(rng() % 3);
  for (int i = 0; i < rounds; ++i) {
    switch (rng() % 5) {
      case 0:  // byte flip
        if (!s.empty()) s[pick(s.size() - 1)] = std::byte(rng() & 0xFF);
        break;
      case 1: {  // a header field at an edge value
        const std::size_t at = headers[rng() % headers.size()];
        if (at + sizeof(Header) <= s.size()) corrupt_header(s, at, rng);
        break;
      }
      case 2:  // truncation
        s.resize(pick(s.size()));
        break;
      case 3: {  // span duplication
        const std::size_t begin = pick(s.size());
        const std::size_t len =
            pick(std::min<std::size_t>(64, s.size() - begin));
        const std::vector<std::byte> span(
            s.begin() + static_cast<std::ptrdiff_t>(begin),
            s.begin() + static_cast<std::ptrdiff_t>(begin + len));
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(pick(s.size())),
                 span.begin(), span.end());
        break;
      }
      default: {  // inserted random bytes
        std::vector<std::byte> junk(1 + rng() % 32);
        for (auto& b : junk) b = std::byte(rng() & 0xFF);
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(pick(s.size())),
                 junk.begin(), junk.end());
      }
    }
  }
}

struct Outcome {
  std::vector<std::vector<double>> unpacked;  ///< payloads that unpacked
  int rejected_payloads = 0;  ///< delivered, but unpacking threw Error
};

/// Feed `stream` to a fresh one-rank socket World, close the writing side,
/// and receive until the endpoint closes.
Outcome feed(const std::vector<std::byte>& stream, std::uint64_t seed) {
  const std::set<int> before = open_sockets();
  World world(1, TransportKind::Socket);
  std::vector<int> fresh;
  for (const int fd : open_sockets()) {
    if (!before.contains(fd)) fresh.push_back(fd);
  }
  // One rank → one socketpair: its receive end (drained by the reader
  // thread) and its send end.  Writing into both puts the stream in front
  // of the reader whichever descriptor is which; closing both writing
  // sides then gives it end-of-file after the last byte.
  EXPECT_EQ(fresh.size(), 2u) << "seed " << seed;
  for (const int fd : fresh) {
    EXPECT_EQ(::write(fd, stream.data(), stream.size()),
              static_cast<ssize_t>(stream.size()))
        << "seed " << seed;
    ::shutdown(fd, SHUT_WR);
  }
  Communicator comm = world.world_comm(0);
  Outcome out;
  for (;;) {
    Message m;
    try {
      m = comm.recv();
    } catch (const CommError&) {
      break;  // the contract: the endpoint closed with a typed error
    } catch (const std::exception& e) {
      ADD_FAILURE() << "seed " << seed << ": recv threw " << e.what();
      break;
    }
    try {
      Unpacker u(m.payload);
      out.unpacked.push_back(u.get_vector<double>());
    } catch (const Error&) {
      ++out.rejected_payloads;
    }
  }
  // The endpoint stays closed: later receives fail fast and sends drop.
  EXPECT_THROW(comm.recv(), CommError) << "seed " << seed;
  EXPECT_NO_THROW(comm.send_value(0, 5, 1)) << "seed " << seed;
  return out;
}

TEST(SocketMutation, EveryCorruptionEndsInCommError) {
  const int context = [] {
    World world(1, TransportKind::Socket);
    return world.world_comm(0).context();
  }();

  {  // The unmutated stream arrives whole, then the endpoint closes.
    std::mt19937_64 rng(0);
    std::vector<std::vector<double>> payloads;
    std::vector<std::size_t> headers;
    const auto stream = make_stream(rng, context, payloads, headers);
    const Outcome clean = feed(stream, 0);
    EXPECT_EQ(clean.unpacked, payloads) << "unmutated stream";
    EXPECT_EQ(clean.rejected_payloads, 0);
  }

  install_crash_reporter();
  int short_streams = 0;
  int rejected_payloads = 0;
  g_peak_alloc = 0;
  g_tracking = true;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    g_seed = static_cast<std::sig_atomic_t>(seed);
    std::mt19937_64 rng(seed);
    std::vector<std::vector<double>> payloads;
    std::vector<std::size_t> headers;
    auto stream = make_stream(rng, context, payloads, headers);
    mutate(stream, headers, rng);
    const Outcome o = feed(stream, seed);
    if (o.unpacked.size() + static_cast<std::size_t>(o.rejected_payloads) <
        payloads.size()) {
      ++short_streams;
    }
    rejected_payloads += o.rejected_payloads;
  }
  g_tracking = false;
  EXPECT_LE(g_peak_alloc.load(), kMaxAlloc)
      << "an allocation followed an announced length, not the bytes read";
  // Both kinds of damage must occur, or the mutations are not reaching the
  // frame parser and the payload reader.
  EXPECT_GT(short_streams, 0);
  EXPECT_GT(rejected_payloads, 0);
}

}  // namespace
}  // namespace dynmo::comm
