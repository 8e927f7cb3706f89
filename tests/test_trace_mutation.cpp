// Seeded mutation test for TraceReader and its JSON parser: bytes from a
// trace directory come from outside the process, so every corruption must
// end in a dynmo::Error — never a crash, a hang, or another exception type.
//
// A copy of the session_elastic golden trace (each table cut to its first
// lines to keep an iteration cheap) is corrupted one seed at a time: byte
// flips, truncation, span duplication and runs of inserted '[' '{' '"',
// applied either to catalog.json or to one line of one table.  Every
// iteration then opens the reader and reads every table.  An iteration's
// corruption depends on its seed alone, and every failure names the seed;
// a crash names it too (on stderr, from a signal handler or the sanitizer
// death callback).
#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "telemetry/trace_reader.hpp"

extern "C" void __sanitizer_set_death_callback(void (*)(void))
    __attribute__((weak));

namespace dynmo {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kSeeds = 2000;
constexpr std::size_t kLinesKept = 8;  ///< per table: one stage_loads frame

volatile std::sig_atomic_t g_seed = 0;

void report_seed() {
  char buf[64];
  const int n = std::snprintf(buf, sizeof buf, "\ntrace mutation seed %lu\n",
                              static_cast<unsigned long>(g_seed));
  if (n > 0) (void)::write(2, buf, static_cast<std::size_t>(n));
}

void report_seed_and_die(int sig) {
  report_seed();
  std::raise(sig);  // SA_RESETHAND: delivered with the default action
}

/// Name the seed on any crash.  Under a sanitizer its own report (with a
/// stack) is worth keeping, so hook its death callback instead of signals.
/// Without one the handler runs on an alternate stack, so a stack overflow
/// is reported too.
void install_crash_reporter() {
  if (__sanitizer_set_death_callback != nullptr) {
    __sanitizer_set_death_callback(report_seed);
    return;
  }
  static char alt_stack[1 << 16];
  stack_t ss{};
  ss.ss_sp = alt_stack;
  ss.ss_size = sizeof alt_stack;
  ::sigaltstack(&ss, nullptr);
  struct sigaction sa {};
  sa.sa_handler = report_seed_and_die;
  sa.sa_flags = SA_ONSTACK | SA_RESETHAND;
  for (int sig : {SIGSEGV, SIGBUS, SIGABRT, SIGFPE, SIGILL}) {
    ::sigaction(sig, &sa, nullptr);
  }
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

void dump(const fs::path& path, const std::string& text) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
}

/// One to four random corruptions of `text`.
void mutate(std::string& text, std::mt19937_64& rng) {
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % (n + 1));
  };
  const int rounds = 1 + static_cast<int>(rng() % 4);
  for (int i = 0; i < rounds; ++i) {
    switch (rng() % 4) {
      case 0:  // byte flip
        if (!text.empty()) {
          text[pick(text.size() - 1)] = static_cast<char>(rng() & 0xFF);
        }
        break;
      case 1:  // truncation
        text.resize(pick(text.size()));
        break;
      case 2: {  // span duplication
        const std::size_t begin = pick(text.size());
        const std::size_t len = pick(std::min<std::size_t>(
            64, text.size() - begin));
        text.insert(pick(text.size()), text.substr(begin, len));
        break;
      }
      default: {  // a run of structural characters, now and then a deep one
        const char c = "[{\""[rng() % 3];
        const std::size_t run =
            rng() % 64 == 0 ? 100'000 : 1 + static_cast<std::size_t>(rng() % 8);
        text.insert(pick(text.size()), run, c);
      }
    }
  }
}

std::string join(const std::vector<std::string>& lines) {
  std::string text;
  for (const auto& line : lines) text += line;
  return text;
}

void read_everything(const std::string& dir) {
  telemetry::TraceReader reader(dir);
  (void)reader.read<telemetry::IterationRow>();
  (void)reader.read<telemetry::StageLoadRow>();
  (void)reader.read<telemetry::RebalanceDecisionRow>();
  (void)reader.read<telemetry::MigrationRow>();
  (void)reader.read<telemetry::ElasticTransitionRow>();
  (void)reader.read<telemetry::FleetDecisionRow>();
  (void)reader.read<telemetry::FaultEventRow>();
  (void)reader.replayed_loads();
  (void)reader.replay_config();
}

TEST(TraceMutation, EveryCorruptionReadsOrThrowsError) {
  const fs::path golden =
      fs::path(DYNMO_SOURCE_DIR) / "tests" / "golden" / "session_elastic";
  const fs::path dir = fs::path(::testing::TempDir()) / "dynmo_trace_mutation";
  fs::remove_all(dir);
  fs::create_directories(dir);

  // Targets: catalog.json whole, or one line of one non-empty table.
  struct File {
    fs::path path;
    std::vector<std::string> lines;  ///< a single entry for the catalog
  };
  std::vector<File> files;
  files.push_back({dir / telemetry::kCatalogFile,
                   {slurp(golden / telemetry::kCatalogFile)}});
  dump(files.back().path, files.back().lines.front());
  for (const auto& spec : telemetry::table_specs()) {
    std::istringstream in(slurp(golden / spec.file));
    File f{dir / spec.file, {}};
    for (std::string line; f.lines.size() < kLinesKept &&
                           std::getline(in, line);) {
      f.lines.push_back(line + "\n");
    }
    dump(f.path, join(f.lines));
    if (!f.lines.empty()) files.push_back(std::move(f));
  }
  ASSERT_NO_THROW(read_everything(dir.string())) << "unmutated copy";

  install_crash_reporter();
  std::uint64_t accepted = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    g_seed = static_cast<std::sig_atomic_t>(seed);
    std::mt19937_64 rng(seed);
    const File& f = files[rng() % files.size()];
    const std::size_t victim = rng() % f.lines.size();
    std::vector<std::string> lines = f.lines;
    mutate(lines[victim], rng);
    dump(f.path, join(lines));
    try {
      read_everything(dir.string());
      ++accepted;
    } catch (const Error&) {
      // The contract: a typed error.
    } catch (const std::exception& e) {
      ADD_FAILURE() << "seed " << seed << " (" << f.path.filename()
                    << "): non-dynmo exception: " << e.what();
    }
    dump(f.path, join(f.lines));
  }
  // Some corruptions are harmless (a flipped digit); most are not.  Both
  // outcomes must occur, or the mutations are not reaching the parser.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, kSeeds);
}

}  // namespace
}  // namespace dynmo
