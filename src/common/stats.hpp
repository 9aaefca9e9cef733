// Streaming and batch statistics used by the fault traces and the
// experiment harness (every paper figure reports mean and stdev).
#pragma once

#include <cstdint>
#include <vector>

namespace hpmmap {

/// Welford's online mean/variance. Numerically stable for the cycle-count
/// magnitudes involved (up to ~1e13).
class RunningStats {
 public:
  void add(double x) noexcept;
  void merge(const RunningStats& other) noexcept;
  void reset() noexcept { *this = RunningStats{}; }

  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator), 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stdev() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return sum_; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Batch sample set with percentile queries. Used where the figures need
/// distribution shape (fault scatter plots) rather than just moments.
class Samples {
 public:
  void add(double x) { xs_.push_back(x); }
  void reserve(std::size_t n) { xs_.reserve(n); }

  [[nodiscard]] std::size_t count() const noexcept { return xs_.size(); }
  [[nodiscard]] bool empty() const noexcept { return xs_.empty(); }
  [[nodiscard]] double mean() const noexcept;
  [[nodiscard]] double stdev() const noexcept;
  [[nodiscard]] double min() const noexcept;
  [[nodiscard]] double max() const noexcept;
  /// Linear-interpolated percentile, p in [0, 100].
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double p50() const { return percentile(50.0); }
  [[nodiscard]] double p95() const { return percentile(95.0); }
  [[nodiscard]] double p99() const { return percentile(99.0); }
  [[nodiscard]] const std::vector<double>& values() const noexcept { return xs_; }

 private:
  std::vector<double> xs_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
  void ensure_sorted() const;
};

} // namespace hpmmap
