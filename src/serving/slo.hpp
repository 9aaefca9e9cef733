// SLO accounting for the serving subsystem.
//
// A serving deployment is judged by how often it breaks its latency
// promises, not by its mean. The accountant counts, per configured
// budget, the requests that completed over budget — and the requests
// that never completed at all because admission shed them; a shed
// request is a broken promise to its user too, so it counts against
// every budget.
//
// The latency recorder keeps exact moments over every request and a
// uniform reservoir sample of them; every reported percentile is a
// nearest-rank order statistic of one sorted copy of that sample, so a
// tail vector is monotone in q by construction.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace hpmmap::serving {

/// Uniform sample of a stream (Vitter's algorithm R), deterministic in
/// the Rng handed in. Quantiles are exact over the retained sample.
class ReservoirSample {
 public:
  ReservoirSample(std::size_t capacity, Rng rng);

  void add(double x);
  /// Exact quantiles of the retained sample, in the order asked, read from
  /// one sorted copy: sample[min(floor(q·n), n−1)] for each q (clamped to
  /// [0, 1]). Monotone in q; all 0 when empty.
  [[nodiscard]] std::vector<double> quantiles(std::initializer_list<double> qs) const;
  [[nodiscard]] std::uint64_t seen() const noexcept { return seen_; }
  [[nodiscard]] std::size_t size() const noexcept { return sample_.size(); }

 private:
  std::size_t capacity_;
  Rng rng_;
  std::uint64_t seen_ = 0;
  std::vector<double> sample_;
};

/// One latency promise: requests slower than `budget` cycles violate it.
struct SloBudget {
  std::string label;  // e.g. "p99<2ms"
  Cycles budget = 0;
};

class SloAccountant {
 public:
  explicit SloAccountant(std::vector<SloBudget> budgets);

  /// A request finished with the given end-to-end latency.
  void on_complete(Cycles latency) noexcept;
  /// A request was shed at admission — violates every budget.
  void on_shed() noexcept;

  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }
  [[nodiscard]] std::uint64_t shed() const noexcept { return shed_; }
  [[nodiscard]] std::size_t budget_count() const noexcept { return budgets_.size(); }
  [[nodiscard]] const SloBudget& budget(std::size_t i) const { return budgets_[i]; }
  /// Violations of budget i: over-budget completions plus all sheds.
  [[nodiscard]] std::uint64_t violations(std::size_t i) const { return violations_[i]; }
  /// Sum of violations across budgets — the headline scalar.
  [[nodiscard]] std::uint64_t total_violations() const noexcept;

 private:
  std::vector<SloBudget> budgets_;
  std::vector<std::uint64_t> violations_;
  std::uint64_t completed_ = 0;
  std::uint64_t shed_ = 0;
};

/// One latency stream: exact moments over every request, tails from the
/// reservoir.
class LatencyRecorder {
 public:
  static constexpr std::size_t kReservoirCapacity = 4096;

  explicit LatencyRecorder(Rng rng) : reservoir_(kReservoirCapacity, rng.fork("reservoir")) {}

  void add(double latency) {
    stats_.add(latency);
    reservoir_.add(latency);
  }

  [[nodiscard]] const RunningStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const ReservoirSample& reservoir() const noexcept { return reservoir_; }

 private:
  RunningStats stats_;
  ReservoirSample reservoir_;
};

} // namespace hpmmap::serving
