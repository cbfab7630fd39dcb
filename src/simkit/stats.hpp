// Online statistics used by the benchmark harnesses and tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace grid::util {

/// Streaming mean / variance / min / max accumulator (Welford's algorithm).
class Accumulator {
 public:
  void add(double x);
  void reset();

  std::size_t count() const { return n_; }
  double mean() const { return n_ == 0 ? 0.0 : mean_; }
  double variance() const;  ///< Sample variance (n-1 denominator).
  double stddev() const;
  double min() const { return n_ == 0 ? 0.0 : min_; }
  double max() const { return n_ == 0 ? 0.0 : max_; }
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Reservoir of raw samples with exact quantiles; fine at simulation scale.
class Samples {
 public:
  void add(double x);
  std::size_t count() const { return xs_.size(); }
  double quantile(double q) const;  ///< q in [0,1]; linear interpolation.
  double median() const { return quantile(0.5); }
  double mean() const;
  double min() const;
  double max() const;
  const std::vector<double>& values() const { return xs_; }

 private:
  mutable std::vector<double> xs_;
  mutable bool sorted_ = true;
  void ensure_sorted() const;
};

/// Fixed-bin linear histogram for wait-time distributions.
class Histogram {
 public:
  /// Bins cover [lo, hi) evenly; samples outside land in under/overflow.
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  std::uint64_t bin(std::size_t i) const { return counts_[i]; }
  std::uint64_t underflow() const { return underflow_; }
  std::uint64_t overflow() const { return overflow_; }
  std::uint64_t total() const { return total_; }
  double bin_lo(std::size_t i) const;
  double bin_hi(std::size_t i) const;

  /// Multi-line ASCII rendering for bench output.
  std::string render(std::size_t width = 40) const;

 private:
  double lo_, hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0, overflow_ = 0, total_ = 0;
};

}  // namespace grid::util
