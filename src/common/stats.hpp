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

/// Streaming quantile estimate via the P² algorithm (Jain & Chlamtac
/// 1985): five markers, O(1) memory and update. Exact until five samples
/// have been seen; after that the markers track the target quantile with
/// parabolic interpolation. Used by the trace histogram registry, where
/// event volume rules out retaining samples.
class P2Quantile {
 public:
  /// q in (0, 1), e.g. 0.95 for p95.
  explicit P2Quantile(double q);

  void add(double x) noexcept;
  [[nodiscard]] double value() const noexcept;
  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }

 private:
  double q_;
  std::uint64_t n_ = 0;
  double heights_[5] = {};       // marker heights
  double positions_[5] = {};     // actual marker positions (1-based)
  double desired_[5] = {};       // desired marker positions
  double increments_[5] = {};    // desired-position increments per sample
};

/// The tail-latency quantile set every serving figure reports: p50, p95,
/// p99 and p99.9 tracked by four P² estimators plus exact min/max/mean.
/// O(1) memory, so the request path can afford one per latency stream.
/// The p99.9 marker needs ~5k samples before its P² markers settle;
/// below that the estimate degrades toward the sample max, which is the
/// conservative direction for an SLO report. tests/test_stats.cpp bounds
/// the error against exact sorted samples on heavy-tailed (lognormal)
/// latency distributions.
class TailQuantiles {
 public:
  static constexpr std::size_t kCount = 4;
  /// The tracked quantiles, in reporting order.
  static constexpr double kQuantiles[kCount] = {0.50, 0.95, 0.99, 0.999};
  static constexpr const char* kLabels[kCount] = {"p50", "p95", "p99", "p99.9"};

  TailQuantiles();

  void add(double x) noexcept;
  /// Estimate for kQuantiles[i].
  [[nodiscard]] double value(std::size_t i) const noexcept;
  [[nodiscard]] double p50() const noexcept { return value(0); }
  [[nodiscard]] double p95() const noexcept { return value(1); }
  [[nodiscard]] double p99() const noexcept { return value(2); }
  [[nodiscard]] double p999() const noexcept { return value(3); }
  [[nodiscard]] std::uint64_t count() const noexcept { return stats_.count(); }
  [[nodiscard]] double mean() const noexcept { return stats_.mean(); }
  [[nodiscard]] double min() const noexcept { return stats_.min(); }
  [[nodiscard]] double max() const noexcept { return stats_.max(); }

 private:
  P2Quantile q_[kCount];
  RunningStats stats_;
};

/// Fixed-bucket histogram (log2 buckets) for cheap shape summaries in logs.
class Log2Histogram {
 public:
  void add(std::uint64_t x) noexcept;
  [[nodiscard]] std::uint64_t bucket_count(unsigned bucket) const noexcept;
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  static constexpr unsigned kBuckets = 64;

 private:
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t total_ = 0;
};

} // namespace hpmmap
