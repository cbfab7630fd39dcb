#include "simkit/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace grid::util {

void Accumulator::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void Accumulator::reset() { *this = Accumulator(); }

double Accumulator::variance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

void Samples::add(double x) {
  xs_.push_back(x);
  sorted_ = false;
}

void Samples::ensure_sorted() const {
  if (!sorted_) {
    std::sort(xs_.begin(), xs_.end());
    sorted_ = true;
  }
}

double Samples::quantile(double q) const {
  if (xs_.empty()) return 0.0;
  ensure_sorted();
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(xs_.size() - 1);
  const std::size_t i = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(i);
  if (i + 1 >= xs_.size()) return xs_.back();
  return xs_[i] * (1.0 - frac) + xs_[i + 1] * frac;
}

double Samples::mean() const {
  if (xs_.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs_) s += x;
  return s / static_cast<double>(xs_.size());
}

double Samples::min() const {
  ensure_sorted();
  return xs_.empty() ? 0.0 : xs_.front();
}

double Samples::max() const {
  ensure_sorted();
  return xs_.empty() ? 0.0 : xs_.back();
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins == 0 ? 1 : bins, 0) {}

void Histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  const double w = (hi_ - lo_) / static_cast<double>(counts_.size());
  auto i = static_cast<std::size_t>((x - lo_) / w);
  if (i >= counts_.size()) i = counts_.size() - 1;
  ++counts_[i];
}

double Histogram::bin_lo(std::size_t i) const {
  const double w = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + w * static_cast<double>(i);
}

double Histogram::bin_hi(std::size_t i) const { return bin_lo(i + 1); }

std::string Histogram::render(std::size_t width) const {
  std::uint64_t peak = 1;
  for (auto c : counts_) peak = std::max(peak, c);
  std::string out;
  char line[160];
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const auto bar =
        static_cast<std::size_t>(counts_[i] * width / peak);
    std::snprintf(line, sizeof line, "[%10.3f, %10.3f) %8llu |", bin_lo(i),
                  bin_hi(i), static_cast<unsigned long long>(counts_[i]));
    out += line;
    out.append(bar, '#');
    out += '\n';
  }
  if (underflow_ != 0 || overflow_ != 0) {
    std::snprintf(line, sizeof line, "underflow=%llu overflow=%llu\n",
                  static_cast<unsigned long long>(underflow_),
                  static_cast<unsigned long long>(overflow_));
    out += line;
  }
  return out;
}

}  // namespace grid::util
