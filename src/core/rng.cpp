#include "core/rng.hpp"

#include <cmath>
#include <numbers>

#include "core/error.hpp"

namespace dynmo {

double Rng::normal() {
  // Box–Muller; rejects u1 == 0 to avoid log(0).
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

std::uint64_t Rng::zipf(std::uint64_t n, double s) {
  DYNMO_CHECK(n > 0, "zipf over empty support");
  DYNMO_CHECK(zipf_exponent_ok(s),
              "zipf exponent " << s << " is not finite, <= 0 or > 1");
  if (s <= 0.0) return uniform_int(n);
  // Inverse-CDF by rejection (Devroye).  Fine for the n (<= few thousand
  // experts/buckets) we use; exactness matters more than speed here.  The
  // sampler needs s > 1: at s = 1 its bound b − 1 is 0, and below 1 the
  // proposal floor(u^(1/(1−s))) is always 0, so every draw is rejected.
  const double b = std::pow(2.0, s - 1.0);
  for (;;) {
    const double u = uniform();
    const double v = uniform();
    const double x = std::floor(std::pow(u, -1.0 / (s - 1.0 + 1e-12)));
    if (x < 1.0 || x > static_cast<double>(n)) continue;
    const double t = std::pow(1.0 + 1.0 / x, s - 1.0);
    if (v * x * (t - 1.0) / (b - 1.0) <= t / b) {
      return static_cast<std::uint64_t>(x) - 1;
    }
  }
}

}  // namespace dynmo
