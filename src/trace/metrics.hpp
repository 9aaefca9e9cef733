// Counter / histogram registry companion to the flight recorder.
//
// Tracepoints record *events*; metrics record *aggregates* that survive
// ring-buffer overwrites: monotonically increasing counters and
// streaming histograms with p50/p95/p99 (log-linear buckets — event
// volume rules out retaining samples). String keys must be literals;
// lookups are by content, so dotted hierarchical names
// ("fault.cycles.small") group naturally in reports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/stats.hpp"

namespace hpmmap::snapshot {
struct Access;
}

namespace hpmmap::trace {

/// Streaming distribution summary: Welford moments plus a fixed
/// log-linear (HDR-style) bucket array, so memory stays O(1) per
/// histogram regardless of event volume. Values are bucketed as whole
/// numbers (callers record cycle counts; fractions are dropped): below
/// 2·S every value has its own bucket, and each power of two above that
/// splits into S equal buckets, S = kSubBuckets. A percentile is the
/// midpoint of the bucket holding the nearest-rank sample, clamped to
/// [min, max], so for whole-number inputs it is within kRelativeError =
/// 1/(2S) of the exact nearest-rank value, and p50 <= p95 <= p99 <= max.
/// Trivially copyable: snapshots store it as raw bytes.
class Histogram {
 public:
  static constexpr unsigned kSubBits = 5;
  static constexpr std::uint64_t kSubBuckets = std::uint64_t{1} << kSubBits;
  /// 2·S exact buckets, then S per power of two from 2^(kSubBits+1) to 2^63.
  static constexpr std::size_t kBuckets = (64 - kSubBits + 1) * kSubBuckets;
  static constexpr double kRelativeError = 0.5 / static_cast<double>(kSubBuckets);

  void add(double x) noexcept {
    stats_.add(x);
    ++counts_[bucket(x)];
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return stats_.count(); }
  [[nodiscard]] double mean() const noexcept { return stats_.mean(); }
  [[nodiscard]] double stdev() const noexcept { return stats_.stdev(); }
  [[nodiscard]] double min() const noexcept { return stats_.min(); }
  [[nodiscard]] double max() const noexcept { return stats_.max(); }
  /// Nearest-rank q-quantile (rank min(floor(q·n), n−1)); 0 when empty.
  [[nodiscard]] double quantile(double q) const noexcept;
  [[nodiscard]] double p50() const noexcept { return quantile(0.50); }
  [[nodiscard]] double p95() const noexcept { return quantile(0.95); }
  [[nodiscard]] double p99() const noexcept { return quantile(0.99); }

 private:
  [[nodiscard]] static std::size_t bucket(double x) noexcept;

  RunningStats stats_;
  std::uint64_t counts_[kBuckets] = {};
};

/// Registry of named counters and histograms. Not thread-safe (the
/// simulation is single-threaded by construction).
class MetricRegistry {
 public:
  /// Monotonic counter; created on first use.
  std::uint64_t& counter(const std::string& name) { return counters_[name]; }
  /// Streaming histogram; created on first use.
  Histogram& histogram(const std::string& name) { return histograms_[name]; }

  [[nodiscard]] const std::map<std::string, std::uint64_t>& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Histogram>& histograms() const noexcept {
    return histograms_;
  }

  void reset() noexcept {
    counters_.clear();
    histograms_.clear();
  }

  /// Human-readable multi-line report (counters, then histograms with
  /// count/mean/p50/p95/p99/max).
  [[nodiscard]] std::string report() const;

 private:
  friend struct hpmmap::snapshot::Access;

  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, Histogram> histograms_;
};

/// This thread's registry (per-run context, like trace::recorder()),
/// reset per experiment run by the harness.
[[nodiscard]] MetricRegistry& metrics() noexcept;

/// Redirect this thread's metrics() to an external registry (per-node
/// cluster contexts; see trace::set_recorder_override). nullptr restores
/// the thread's own registry.
void set_metrics_override(MetricRegistry* m) noexcept;

} // namespace hpmmap::trace
