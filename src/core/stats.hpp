// Streaming and batch statistics helpers used by the profiler, the
// balancers, and the benchmark harnesses.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace dynmo {

/// Welford online mean/variance accumulator.
class RunningStats {
 public:
  void add(double x);
  void reset() { *this = RunningStats{}; }

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< population variance
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Batch helpers over spans; all handle empty input by returning 0.
double mean_of(std::span<const double> xs);
double sum_of(std::span<const double> xs);
double max_of(std::span<const double> xs);
double min_of(std::span<const double> xs);

/// Relative load imbalance per paper Eq. (2):
///   (L_max − L_min) / mean(L).   0 when perfectly balanced or empty.
double load_imbalance(std::span<const double> loads);

/// max(L)/mean(L) − common alternative imbalance metric (≥ 1.0 − epsilon).
double max_over_mean(std::span<const double> loads);

}  // namespace dynmo
