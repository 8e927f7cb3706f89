#include "core/stats.hpp"

#include <algorithm>
#include <cmath>

namespace dynmo {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double sum_of(std::span<const double> xs) {
  double s = 0.0;
  for (double x : xs) s += x;
  return s;
}

double mean_of(std::span<const double> xs) {
  return xs.empty() ? 0.0 : sum_of(xs) / static_cast<double>(xs.size());
}

double max_of(std::span<const double> xs) {
  double m = xs.empty() ? 0.0 : xs.front();
  for (double x : xs) m = std::max(m, x);
  return m;
}

double min_of(std::span<const double> xs) {
  double m = xs.empty() ? 0.0 : xs.front();
  for (double x : xs) m = std::min(m, x);
  return m;
}

double load_imbalance(std::span<const double> loads) {
  if (loads.empty()) return 0.0;
  const double mu = mean_of(loads);
  if (mu <= 0.0) return 0.0;
  return (max_of(loads) - min_of(loads)) / mu;
}

double max_over_mean(std::span<const double> loads) {
  if (loads.empty()) return 1.0;
  const double mu = mean_of(loads);
  if (mu <= 0.0) return 1.0;
  return max_of(loads) / mu;
}

}  // namespace dynmo
