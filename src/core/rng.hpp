// Deterministic random number generation.
//
// All stochastic behaviour in DynMo (token routing, exit decisions, hash
// bucket assignment, ...) flows through Rng so that every experiment is
// reproducible from a single seed.  The engine is xoshiro256**, seeded via
// SplitMix64 — fast, high quality, and trivially splittable so that each
// worker / layer / iteration can derive an independent stream.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace dynmo {

/// SplitMix64 step — used for seeding and for cheap stateless hashing.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Stateless 64-bit mix of up to three keys; used to derive substream seeds.
constexpr std::uint64_t hash_mix(std::uint64_t a, std::uint64_t b = 0,
                                 std::uint64_t c = 0) {
  std::uint64_t s = a;
  std::uint64_t h = splitmix64(s);
  s ^= b + 0x9e3779b97f4a7c15ULL;
  h ^= splitmix64(s);
  s ^= c + 0xd1b54a32d192ed03ULL;
  h ^= splitmix64(s);
  return h;
}

/// xoshiro256** engine with distribution helpers.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5eedULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    origin_ = seed;
    std::uint64_t sm = seed;
    for (auto& word : s_) word = splitmix64(sm);
  }

  /// Independent substream derived from this seed and the given keys.
  Rng split(std::uint64_t k1, std::uint64_t k2 = 0, std::uint64_t k3 = 0) const {
    return Rng(hash_mix(s_[0] ^ s_[3], hash_mix(k1, k2, k3)));
  }

  /// Independent substream addressed by a stable stream id.  Unlike
  /// split(), fork() does not read the *current* engine state — it derives
  /// from the state as-constructed, so forking never advances this stream
  /// and two forks of the same id are identical regardless of how many
  /// draws happened in between.  Consumers that must not perturb an
  /// existing noise stream (e.g. fault::Injector alongside the session's
  /// measurement noise) fork their own stream instead of sharing one.
  Rng fork(std::uint64_t stream_id) const {
    return Rng(hash_mix(origin_, 0xf02cULL, stream_id));
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n).  n must be > 0.
  std::uint64_t uniform_int(std::uint64_t n) {
    // Lemire's nearly-divisionless bounded sampling.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = -n % n;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Standard normal via Box–Muller (no cached spare: keeps state trivial).
  double normal();
  /// Normal with the given mean / stddev.
  double normal(double mean, double stddev) { return mean + stddev * normal(); }
  /// Log-normal such that the underlying normal is N(mu, sigma).
  double lognormal(double mu, double sigma);
  /// Zipf-distributed integer in [0, n) with exponent `s` (s <= 0 →
  /// uniform).  Used to model skewed hash-bucket popularity.  Throws
  /// dynmo::Error unless zipf_exponent_ok(s).
  std::uint64_t zipf(std::uint64_t n, double s);
  /// The exponents zipf() samples: finite and either <= 0 or > 1 (its
  /// rejection sampler never accepts for 0 < s <= 1).
  static bool zipf_exponent_ok(double s) {
    return std::isfinite(s) && (s <= 0.0 || s > 1.0);
  }
  /// Bernoulli trial.
  bool bernoulli(double p) { return uniform() < p; }
  /// Sample from unnormalised non-negative weights; returns the first index
  /// at which uniform()·total minus the running weight sum drops to <= 0
  /// (the last index if rounding never gets it there).  `total` must be the
  /// left-to-right sum of the weights and > 0; neither is checked here, so
  /// callers drawing many times from one weight vector sum it once.
  /// The chain is walked to the end instead of exiting early: with
  /// non-negative weights it never rises once it reaches <= 0, so the count
  /// of steps still above zero is the same index, found without a
  /// data-dependent branch per draw.
  std::size_t categorical(const std::vector<double>& weights, double total) {
    double r = uniform() * total;
    std::size_t above = 0;
    for (double w : weights) {
      r -= w;
      above += !(r <= 0.0);
    }
    return above < weights.size() ? above : weights.size() - 1;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4]{};
  std::uint64_t origin_ = 0;  ///< seed as-constructed; basis for fork().
};

}  // namespace dynmo
