// Counter / histogram registry companion to the flight recorder.
//
// Tracepoints record *events*; metrics record *aggregates* that survive
// ring-buffer overwrites: monotonically increasing counters and
// streaming histograms with p50/p95/p99 (P² estimators — event volume
// rules out retaining samples). String keys must be literals; lookups
// are by content, so dotted hierarchical names ("fault.cycles.small")
// group naturally in reports.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/stats.hpp"

namespace hpmmap::snapshot {
struct Access;
}

namespace hpmmap::trace {

/// Streaming distribution summary: Welford moments + P² percentile
/// markers. O(1) memory per histogram regardless of event volume.
class Histogram {
 public:
  Histogram() : p50_(0.50), p95_(0.95), p99_(0.99) {}

  void add(double x) noexcept {
    stats_.add(x);
    p50_.add(x);
    p95_.add(x);
    p99_.add(x);
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return stats_.count(); }
  [[nodiscard]] double mean() const noexcept { return stats_.mean(); }
  [[nodiscard]] double stdev() const noexcept { return stats_.stdev(); }
  [[nodiscard]] double min() const noexcept { return stats_.min(); }
  [[nodiscard]] double max() const noexcept { return stats_.max(); }
  [[nodiscard]] double p50() const noexcept { return p50_.value(); }
  [[nodiscard]] double p95() const noexcept { return p95_.value(); }
  [[nodiscard]] double p99() const noexcept { return p99_.value(); }

 private:
  RunningStats stats_;
  P2Quantile p50_;
  P2Quantile p95_;
  P2Quantile p99_;
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
