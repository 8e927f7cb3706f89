// Unit tests for core/: rng, stats, units, error handling.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "core/error.hpp"
#include "core/log.hpp"
#include "core/rng.hpp"
#include "core/stats.hpp"
#include "core/units.hpp"

namespace dynmo {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, SplitIndependentStreams) {
  Rng root(7);
  Rng s1 = root.split(1);
  Rng s2 = root.split(2);
  Rng s1b = Rng(7).split(1);
  EXPECT_EQ(s1(), s1b());
  EXPECT_NE(s1(), s2());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntBounds) {
  Rng rng(4);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 3000; ++i) {
    const auto v = rng.uniform_int(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  RunningStats st;
  for (int i = 0; i < 50000; ++i) st.add(rng.normal());
  EXPECT_NEAR(st.mean(), 0.0, 0.03);
  EXPECT_NEAR(st.stddev(), 1.0, 0.03);
}

TEST(Rng, LognormalPositive) {
  Rng rng(12);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.lognormal(0.0, 1.0), 0.0);
}

TEST(Rng, ZipfSkewsLow) {
  Rng rng(13);
  std::vector<int> counts(16, 0);
  for (int i = 0; i < 20000; ++i) ++counts[rng.zipf(16, 1.2)];
  EXPECT_GT(counts[0], counts[8]);
  EXPECT_GT(counts[0], counts[15]);
}

TEST(Rng, ZipfZeroExponentIsUniformish) {
  Rng rng(14);
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 40000; ++i) ++counts[rng.zipf(8, 0.0)];
  for (int c : counts) EXPECT_NEAR(c, 5000, 600);
}

TEST(Rng, ZipfRejectsExponentsItCannotSample) {
  // Devroye's rejection sampler needs s > 1: for 0 < s <= 1 it rejected
  // every proposal and never returned.
  Rng rng(16);
  for (double s : {1.0, 0.8, 0.5, 1e-300,
                   std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW((void)rng.zipf(16, s), Error) << "s = " << s;
    EXPECT_FALSE(Rng::zipf_exponent_ok(s)) << "s = " << s;
  }
  for (double s : {-0.5, 0.0, 1.0 + 1e-9, 1.1, 3.0}) {
    EXPECT_TRUE(Rng::zipf_exponent_ok(s)) << "s = " << s;
  }
}

TEST(Rng, ZipfStreamsAreUnchangedForSamplableExponents) {
  // Draws recorded before exponents in (0, 1] were rejected: the check
  // must not shift the stream for s > 1 or s <= 0.
  const auto draws = [](double s) {
    Rng rng(0x21f);
    std::vector<std::uint64_t> out;
    for (int i = 0; i < 16; ++i) out.push_back(rng.zipf(16, s));
    out.push_back(rng());
    return out;
  };
  EXPECT_EQ(draws(1.2),
            (std::vector<std::uint64_t>{0, 6, 2, 3, 2, 0, 5, 0, 0, 1, 1, 0, 1,
                                        3, 3, 0, 14033163014994160682ULL}));
  EXPECT_EQ(draws(3.0),
            (std::vector<std::uint64_t>{0, 2, 0, 0, 0, 0, 2, 0, 0, 2, 1, 0, 0,
                                        0, 1, 0, 16259299777572705529ULL}));
  const std::vector<std::uint64_t> uniform{
      14, 11, 1, 0, 10, 10, 4, 15, 12, 11, 11, 10, 1, 8, 12, 14,
      8511749309337819355ULL};
  EXPECT_EQ(draws(0.0), uniform);
  EXPECT_EQ(draws(-0.5), uniform);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(15);
  std::vector<double> w = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 20000; ++i) ++counts[rng.categorical(w, 4.0)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
}

// The early-exit subtraction chain categorical() must agree with draw for
// draw.
std::size_t first_nonpositive(Rng& rng, const std::vector<double>& w) {
  double total = 0.0;
  for (double x : w) total += x;
  double r = rng.uniform() * total;
  for (std::size_t i = 0; i < w.size(); ++i) {
    r -= w[i];
    if (r <= 0.0) return i;
  }
  return w.size() - 1;
}

TEST(Rng, CategoricalMatchesEarlyExitChain) {
  Rng gen(17), ref(18), b(18);
  for (int trial = 0; trial < 4000; ++trial) {
    std::vector<double> w(1 + gen.uniform_int(20));
    for (double& x : w) {
      // Zeros, and weights spanning many magnitudes so the chain often
      // ends within rounding of zero.
      const int exp = -static_cast<int>(gen.uniform_int(60));
      x = gen.bernoulli(0.3) ? 0.0 : std::ldexp(gen.uniform(), exp);
    }
    w[gen.uniform_int(w.size())] = gen.uniform(0.5, 1.0);  // sum > 0
    double total = 0.0;
    for (double x : w) total += x;
    for (int draw = 0; draw < 8; ++draw) {
      const std::size_t want = first_nonpositive(ref, w);
      EXPECT_EQ(b.categorical(w, total), want);
    }
  }
}

TEST(RunningStats, MatchesBatch) {
  Rng rng(17);
  RunningStats st;
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-3.0, 5.0);
    st.add(x);
    xs.push_back(x);
  }
  EXPECT_NEAR(st.mean(), mean_of(xs), 1e-9);
  double ss = 0.0;
  for (const double x : xs) ss += (x - mean_of(xs)) * (x - mean_of(xs));
  EXPECT_NEAR(st.stddev(), std::sqrt(ss / static_cast<double>(xs.size())),
              1e-9);
  EXPECT_DOUBLE_EQ(st.min(), min_of(xs));
  EXPECT_DOUBLE_EQ(st.max(), max_of(xs));
}

TEST(Stats, LoadImbalanceEq2) {
  // Paper Eq. (2): (Lmax - Lmin) / mean(L).
  std::vector<double> loads = {2.0, 4.0, 6.0};
  EXPECT_NEAR(load_imbalance(loads), (6.0 - 2.0) / 4.0, 1e-12);
  std::vector<double> balanced = {3.0, 3.0, 3.0};
  EXPECT_DOUBLE_EQ(load_imbalance(balanced), 0.0);
  EXPECT_DOUBLE_EQ(load_imbalance({}), 0.0);
}

TEST(Stats, MaxOverMean) {
  std::vector<double> loads = {1.0, 3.0};
  EXPECT_DOUBLE_EQ(max_over_mean(loads), 1.5);
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2048), "2 KiB");
}

TEST(Units, FormatSeconds) {
  EXPECT_EQ(format_seconds(0.002), "2 ms");
  EXPECT_EQ(format_seconds(3.0), "3 s");
}

TEST(Log, SinkCapturesFormattedLines) {
  std::vector<std::string> lines;
  Logger::instance().set_sink(
      [&lines](LogLevel, std::string_view line) { lines.emplace_back(line); });
  const LogLevel before = Logger::instance().level();
  Logger::instance().set_level(LogLevel::Info);
  DYNMO_LOG(Info) << "captured " << 7;
  DYNMO_LOG(Debug) << "below the level, dropped";
  Logger::instance().set_level(before);
  Logger::instance().set_sink({});  // restore stderr

  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("[dynmo INFO "), std::string::npos);
  EXPECT_NE(lines[0].find("captured 7"), std::string::npos);
}

TEST(Log, PrefixIsIso8601Utc) {
  std::vector<std::string> lines;
  Logger::instance().set_sink(
      [&lines](LogLevel, std::string_view line) { lines.emplace_back(line); });
  const LogLevel before = Logger::instance().level();
  Logger::instance().set_level(LogLevel::Warn);
  DYNMO_LOG(Warn) << "stamp check";
  Logger::instance().set_level(before);
  Logger::instance().set_sink({});

  ASSERT_EQ(lines.size(), 1u);
  // 2026-08-08T12:34:56.789Z — fixed-width ISO-8601 with milliseconds.
  const std::string& l = lines[0];
  ASSERT_GE(l.size(), 24u);
  EXPECT_EQ(l[4], '-');
  EXPECT_EQ(l[7], '-');
  EXPECT_EQ(l[10], 'T');
  EXPECT_EQ(l[13], ':');
  EXPECT_EQ(l[16], ':');
  EXPECT_EQ(l[19], '.');
  EXPECT_EQ(l[23], 'Z');
  for (int i : {0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18, 20, 21, 22}) {
    EXPECT_TRUE(l[static_cast<std::size_t>(i)] >= '0' &&
                l[static_cast<std::size_t>(i)] <= '9')
        << "position " << i << " in " << l;
  }
  EXPECT_EQ(l[24], ' ');
  EXPECT_NE(l.find("[dynmo WARN "), std::string::npos);
}

TEST(Error, CheckThrowsWithContext) {
  try {
    DYNMO_CHECK(1 == 2, "value " << 42);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("42"), std::string::npos);
  }
}

TEST(Error, CheckPassesSilently) {
  EXPECT_NO_THROW(DYNMO_CHECK(true, "never"));
}

}  // namespace
}  // namespace dynmo
