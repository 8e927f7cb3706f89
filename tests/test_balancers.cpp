// Unit and property tests for the Partition and Diffusion balancers —
// including the Lemma-1/Lemma-2 claims: the partition balancer achieves the
// optimal contiguous bottleneck (exhaustively verified on small instances),
// and the diffusion balancer's potential is monotone non-increasing and
// converges within the Lemma-2 round bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <sstream>

#include "core/error.hpp"

#include "balance/diffusion.hpp"
#include "balance/partition.hpp"
#include "core/rng.hpp"
#include "core/stats.hpp"
#include "diffusion_oracle.hpp"

namespace dynmo::balance {
namespace {

/// Brute-force optimal contiguous bottleneck for small instances.
double brute_force_bottleneck(std::span<const double> w, int stages) {
  const std::size_t n = w.size();
  if (stages == 1) return std::accumulate(w.begin(), w.end(), 0.0);
  double best = std::numeric_limits<double>::infinity();
  // Enumerate first-stage cut and recurse.
  std::vector<double> prefix(n + 1, 0.0);
  for (std::size_t i = 0; i < n; ++i) prefix[i + 1] = prefix[i] + w[i];
  // DP over (position, stages left).
  std::vector<std::vector<double>> dp(
      n + 1, std::vector<double>(static_cast<std::size_t>(stages) + 1,
                                 std::numeric_limits<double>::infinity()));
  dp[n][0] = 0.0;
  for (int k = 1; k <= stages; ++k) {
    for (std::size_t i = 0; i <= n; ++i) {
      for (std::size_t j = i; j <= n; ++j) {
        const double stage = prefix[j] - prefix[i];
        const double rest = dp[j][static_cast<std::size_t>(k - 1)];
        dp[i][static_cast<std::size_t>(k)] =
            std::min(dp[i][static_cast<std::size_t>(k)],
                     std::max(stage, rest));
      }
    }
  }
  best = dp[0][static_cast<std::size_t>(stages)];
  return best;
}

std::vector<double> random_weights(Rng& rng, std::size_t n, int pattern) {
  std::vector<double> w(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (pattern) {
      case 0: w[i] = rng.uniform(0.1, 2.0); break;
      case 1: w[i] = std::exp(-3.0 * static_cast<double>(i) / n); break;
      case 2: w[i] = (i % 5 == 0) ? 5.0 : 0.2; break;
      default: w[i] = 1.0; break;
    }
  }
  return w;
}

class PartitionOptimality
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(PartitionOptimality, MatchesBruteForce) {
  const auto [n, stages, pattern] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n * 7 + stages * 3 + pattern));
  const auto w = random_weights(rng, static_cast<std::size_t>(n), pattern);

  PartitionRequest req;
  req.weights = w;
  req.num_stages = stages;
  const auto res = PartitionBalancer{}.balance(req);

  const double optimal = brute_force_bottleneck(w, stages);
  EXPECT_NEAR(res.bottleneck, optimal, 1e-9 + 1e-9 * optimal)
      << "n=" << n << " stages=" << stages << " pattern=" << pattern;
  EXPECT_NEAR(PartitionBalancer::optimal_bottleneck(w, stages), optimal,
              1e-9 + 1e-9 * optimal);
  // Structural sanity.
  EXPECT_EQ(res.map.num_layers(), w.size());
  EXPECT_EQ(res.map.num_stages(), stages);
  EXPECT_TRUE(res.memory_feasible);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PartitionOptimality,
    ::testing::Combine(::testing::Values(1, 3, 8, 13, 20),
                       ::testing::Values(1, 2, 4, 6),
                       ::testing::Values(0, 1, 2, 3)));

TEST(Partition, RespectsMemoryCapacity) {
  PartitionRequest req;
  req.weights = {1, 1, 1, 1, 1, 1};
  req.memory_bytes = {10, 10, 10, 10, 10, 10};
  req.mem_capacity = 25;  // at most 2 layers per stage
  req.num_stages = 3;
  const auto res = PartitionBalancer{}.balance(req);
  EXPECT_TRUE(res.memory_feasible);
  const auto mem = res.map.stage_loads(req.memory_bytes);
  for (double m : mem) EXPECT_LE(m, 25.0);
}

TEST(Partition, FlagsInfeasibleMemory) {
  PartitionRequest req;
  req.weights = {1, 1};
  req.memory_bytes = {30, 30};  // single layer exceeds capacity
  req.mem_capacity = 25;
  req.num_stages = 2;
  const auto res = PartitionBalancer{}.balance(req);
  EXPECT_FALSE(res.memory_feasible);
}

TEST(Partition, RejectsEmptyInput) {
  PartitionRequest req;
  req.num_stages = 2;
  EXPECT_THROW((void)PartitionBalancer{}.balance(req), Error);
}

TEST(Diffusion, PotentialDefinition) {
  // phi = sum over all pairs |x_u - x_v|.
  EXPECT_DOUBLE_EQ(DiffusionBalancer::potential(std::vector<double>{1, 3}),
                   2.0);
  EXPECT_DOUBLE_EQ(
      DiffusionBalancer::potential(std::vector<double>{1, 2, 4}),
      1 + 3 + 2);
  EXPECT_DOUBLE_EQ(DiffusionBalancer::potential(std::vector<double>{5, 5}),
                   0.0);
}

class DiffusionConvergence
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DiffusionConvergence, PhiMonotoneAndNearOptimal) {
  const auto [stages, pattern] = GetParam();
  Rng rng(static_cast<std::uint64_t>(stages * 31 + pattern));
  const auto n = static_cast<std::size_t>(stages) * 5;
  const auto w = random_weights(rng, n, pattern);

  DiffusionRequest req;
  req.weights = w;
  const auto start = pipeline::StageMap::uniform(n, stages);
  const auto res = DiffusionBalancer{}.balance(req, start);

  // Reported potential history is monotone non-increasing (Lemma 2).
  for (std::size_t i = 1; i < res.phi_history.size(); ++i) {
    EXPECT_LE(res.phi_history[i], res.phi_history[i - 1] + 1e-9);
  }
  // Round count within the Lemma-2 bound.
  const double total = std::accumulate(w.begin(), w.end(), 0.0);
  const double gamma = 1e-3 * total;
  EXPECT_LE(res.rounds,
            DiffusionBalancer::lemma2_round_bound(stages, total, gamma));

  // Final bottleneck within one max layer weight of the partition optimum
  // (whole-layer granularity bound).
  const double opt = PartitionBalancer::optimal_bottleneck(w, stages);
  const double max_w = *std::max_element(w.begin(), w.end());
  const auto loads = res.map.stage_loads(w);
  const double bottleneck = *std::max_element(loads.begin(), loads.end());
  EXPECT_LE(bottleneck, opt + max_w + 1e-9);
  // Never worse than the uniform start.
  const auto start_loads = start.stage_loads(w);
  EXPECT_LE(bottleneck,
            *std::max_element(start_loads.begin(), start_loads.end()) + 1e-9);
  // Map structural sanity.
  EXPECT_EQ(res.map.num_layers(), n);
  EXPECT_EQ(res.map.num_stages(), stages);
}

INSTANTIATE_TEST_SUITE_P(Grid, DiffusionConvergence,
                         ::testing::Combine(::testing::Values(2, 4, 8, 16),
                                            ::testing::Values(0, 1, 2, 3)));

TEST(Diffusion, ConvergesOnAlreadyBalanced) {
  DiffusionRequest req;
  req.weights = std::vector<double>(12, 1.0);
  const auto start = pipeline::StageMap::uniform(12, 4);
  const auto res = DiffusionBalancer{}.balance(req, start);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.map, start);
  EXPECT_EQ(res.layer_moves, 0);
}

TEST(Diffusion, RespectsMemoryCapacity) {
  DiffusionRequest req;
  req.weights = {4, 1, 1, 1};          // heavy first layer
  req.memory_bytes = {10, 10, 10, 10};
  req.mem_capacity = 20;               // max two layers anywhere
  const auto start = pipeline::StageMap::uniform(4, 2);
  const auto res = DiffusionBalancer{}.balance(req, start);
  const auto mem = res.map.stage_loads(req.memory_bytes);
  for (double m : mem) EXPECT_LE(m, 20.0);
}

TEST(Diffusion, EscapesGapGreedyLocalOptimum) {
  // Smoothly decaying loads: naive pairwise gap-greedy exchange stalls at
  // the uniform split; flow-based diffusion must do better.
  std::vector<double> w(32);
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = std::exp(-2.5 * static_cast<double>(i) / w.size());
  }
  DiffusionRequest req;
  req.weights = w;
  const auto start = pipeline::StageMap::uniform(w.size(), 8);
  const auto res = DiffusionBalancer{}.balance(req, start);
  const auto start_loads = start.stage_loads(w);
  const auto end_loads = res.map.stage_loads(w);
  EXPECT_LT(load_imbalance(end_loads), 0.5 * load_imbalance(start_loads));
}

TEST(Diffusion, RejectsNonFiniteWeights) {
  DiffusionRequest req;
  req.weights = {1.0, std::nan(""), 1.0, 1.0};
  const auto start = pipeline::StageMap::uniform(4, 2);
  EXPECT_THROW((void)DiffusionBalancer{}.balance(req, start), Error);
  req.weights[1] = HUGE_VAL;
  EXPECT_THROW((void)DiffusionBalancer{}.balance(req, start), Error);
}

bool close_rel(double a, double b, double rel) {
  return std::abs(a - b) <= rel * std::max(std::abs(a), std::abs(b));
}

TEST(Diffusion, SortedPotentialMatchesPairwiseSum) {
  Rng rng(0xf1);
  for (int trial = 0; trial < 400; ++trial) {
    const auto n = 1 + rng.uniform_int(200);
    std::vector<double> x(n);
    const bool integer = trial % 2 == 0;
    for (auto& v : x) {
      v = integer ? static_cast<double>(rng.uniform_int(1000))
                  : rng.uniform(0.0, 10.0) * std::pow(10.0, rng.uniform(-3, 3));
    }
    const double pairwise = testing::pairwise_potential(x);
    const double phi = DiffusionBalancer::potential(x);
    if (integer) {
      EXPECT_EQ(phi, pairwise) << "trial " << trial;  // every sum is exact
    } else {
      EXPECT_TRUE(close_rel(phi, pairwise, 1e-12))
          << "trial " << trial << ": " << phi << " vs " << pairwise;
    }
    // A function of the multiset: any order gives the same bits.
    for (int shuffle = 0; shuffle < 3; ++shuffle) {
      for (std::size_t i = n; i > 1; --i) {
        std::swap(x[i - 1], x[rng.uniform_int(i)]);
      }
      EXPECT_EQ(std::bit_cast<std::uint64_t>(DiffusionBalancer::potential(x)),
                std::bit_cast<std::uint64_t>(phi))
          << "trial " << trial;
    }
  }
  EXPECT_EQ(DiffusionBalancer::potential(std::vector<double>{}), 0.0);
  EXPECT_EQ(DiffusionBalancer::potential(std::vector<double>{7.5}), 0.0);
}

// One seeded case of the differential corpus.
struct DiffusionCase {
  DiffusionRequest req;
  pipeline::StageMap start;
};

DiffusionCase random_diffusion_case(Rng& rng, int index) {
  const int S = 2 + static_cast<int>(rng.uniform_int(63));  // 2..64
  const auto per_stage = 1 + rng.uniform_int(6);           // 1..6
  const std::size_t L = static_cast<std::size_t>(S) * per_stage;
  DiffusionCase c;
  auto& w = c.req.weights;
  w.resize(L);
  for (auto& x : w) {
    switch (index % 5) {
      case 0: x = rng.uniform(0.1, 2.0); break;
      case 1: x = static_cast<double>(1 + rng.uniform_int(9)); break;
      case 2: x = 1.0; break;
      case 3: x = 0.1 * static_cast<double>(1 + rng.uniform_int(20)); break;
      default: x = 1e-3 * rng.uniform(0.5, 1.5); break;
    }
  }
  if (rng.uniform() < 0.25) {
    c.req.capacities.resize(static_cast<std::size_t>(S));
    for (auto& cap : c.req.capacities) cap = rng.uniform(0.5, 2.0);
  }
  if (rng.uniform() < 0.25) {
    c.req.memory_bytes.resize(L);
    for (auto& m : c.req.memory_bytes) m = rng.uniform(1.0, 3.0);
    // Room for one to three layers above the mean stage.
    c.req.mem_capacity =
        3.0 * static_cast<double>(per_stage) + rng.uniform(1.0, 9.0);
  }
  // Random start map, empty stages allowed.
  std::vector<std::size_t> b(static_cast<std::size_t>(S) + 1, 0);
  for (int s = 1; s < S; ++s) {
    b[static_cast<std::size_t>(s)] = rng.uniform_int(L + 1);
  }
  b.back() = L;
  std::sort(b.begin(), b.end());
  c.start = pipeline::StageMap::from_boundaries(std::move(b));
  return c;
}

std::vector<double> normalized_loads(const DiffusionRequest& req,
                                     const pipeline::StageMap& map) {
  auto x = map.stage_loads(req.weights);
  for (std::size_t s = 0; s < x.size() && !req.capacities.empty(); ++s) {
    x[s] /= req.capacities[s];
  }
  return x;
}

TEST(Diffusion, MatchesPairwiseOracleOnSeededCorpus) {
  // The balancer must replay the first-written protocol (pairwise φ twice
  // per round) round for round.  The returned map may differ only where
  // two placements tie on the bottleneck and their φ differ by rounding.
  constexpr int kCases = 3000;
  Rng rng(0xd1ff);
  int tie_breaks = 0;
  for (int i = 0; i < kCases; ++i) {
    const auto c = random_diffusion_case(rng, i);
    const auto got = DiffusionBalancer{}.balance(c.req, c.start);
    const auto want = testing::diffusion_oracle(c.req, c.start);
    std::ostringstream where;
    where << "case " << i << ": " << c.start.num_stages() << " stages, "
          << c.req.weights.size() << " layers";
    ASSERT_EQ(got.rounds, want.rounds) << where.str();
    ASSERT_EQ(got.layer_moves, want.layer_moves) << where.str();
    ASSERT_EQ(got.converged, want.converged) << where.str();
    ASSERT_EQ(got.phi_history.size(), want.phi_history.size()) << where.str();
    for (std::size_t r = 0; r < got.phi_history.size(); ++r) {
      ASSERT_TRUE(close_rel(got.phi_history[r], want.phi_history[r], 1e-12))
          << where.str() << ", round " << r << ": " << got.phi_history[r]
          << " vs " << want.phi_history[r];
    }
    if (got.map == want.map) continue;
    ++tie_breaks;
    const auto x = normalized_loads(c.req, got.map);
    const auto y = normalized_loads(c.req, want.map);
    const double bx = *std::max_element(x.begin(), x.end());
    const double by = *std::max_element(y.begin(), y.end());
    ASSERT_EQ(std::bit_cast<std::uint64_t>(bx), std::bit_cast<std::uint64_t>(by))
        << where.str();
    ASSERT_TRUE(close_rel(testing::pairwise_potential(x),
                          testing::pairwise_potential(y), 1e-12))
        << where.str();
  }
  RecordProperty("tie_breaks", tie_breaks);
  // Rounding ties are rare; a flood of them would mean the tie-break moved.
  EXPECT_LT(tie_breaks, kCases / 20);
}

TEST(Diffusion, Lemma2BoundGrowsWithN) {
  const int b4 = DiffusionBalancer::lemma2_round_bound(4, 100.0, 0.1);
  const int b16 = DiffusionBalancer::lemma2_round_bound(16, 100.0, 0.1);
  EXPECT_GT(b16, b4);
  EXPECT_GT(b4, 0);
}

}  // namespace
}  // namespace dynmo::balance
