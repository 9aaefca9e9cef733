#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace hpmmap {

void RunningStats::add(double x) noexcept {
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

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) {
    return;
  }
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stdev() const noexcept { return std::sqrt(variance()); }

void Samples::ensure_sorted() const {
  if (!sorted_valid_ || sorted_.size() != xs_.size()) {
    sorted_ = xs_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
}

double Samples::mean() const noexcept {
  if (xs_.empty()) {
    return 0.0;
  }
  double s = 0.0;
  for (double x : xs_) {
    s += x;
  }
  return s / static_cast<double>(xs_.size());
}

double Samples::stdev() const noexcept {
  if (xs_.size() < 2) {
    return 0.0;
  }
  const double m = mean();
  double s2 = 0.0;
  for (double x : xs_) {
    s2 += (x - m) * (x - m);
  }
  return std::sqrt(s2 / static_cast<double>(xs_.size() - 1));
}

double Samples::min() const noexcept {
  return xs_.empty() ? 0.0 : *std::min_element(xs_.begin(), xs_.end());
}

double Samples::max() const noexcept {
  return xs_.empty() ? 0.0 : *std::max_element(xs_.begin(), xs_.end());
}

double Samples::percentile(double p) const {
  HPMMAP_ASSERT(p >= 0.0 && p <= 100.0, "percentile must be in [0, 100]");
  if (xs_.empty()) {
    return 0.0;
  }
  ensure_sorted();
  if (sorted_.size() == 1) {
    return sorted_[0];
  }
  const double rank = p / 100.0 * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= sorted_.size()) {
    return sorted_.back();
  }
  return sorted_[lo] + frac * (sorted_[lo + 1] - sorted_[lo]);
}

} // namespace hpmmap
