#include "serving/slo.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"

namespace hpmmap::serving {

ReservoirSample::ReservoirSample(std::size_t capacity, Rng rng)
    : capacity_(capacity), rng_(rng) {
  HPMMAP_ASSERT(capacity > 0, "reservoir needs room for at least one sample");
  sample_.reserve(capacity);
}

void ReservoirSample::add(double x) {
  ++seen_;
  if (sample_.size() < capacity_) {
    sample_.push_back(x);
    return;
  }
  // Algorithm R: element n survives with probability capacity/n.
  const std::uint64_t j = rng_.next_u64() % seen_;
  if (j < capacity_) {
    sample_[static_cast<std::size_t>(j)] = x;
  }
}

std::vector<double> ReservoirSample::quantiles(std::initializer_list<double> qs) const {
  std::vector<double> out(qs.size(), 0.0);
  if (sample_.empty()) {
    return out;
  }
  std::vector<double> sorted = sample_;
  std::sort(sorted.begin(), sorted.end());
  std::size_t i = 0;
  for (const double q : qs) {
    const auto rank =
        static_cast<std::size_t>(std::clamp(q, 0.0, 1.0) * static_cast<double>(sorted.size()));
    out[i++] = sorted[std::min(rank, sorted.size() - 1)];
  }
  return out;
}

SloAccountant::SloAccountant(std::vector<SloBudget> budgets)
    : budgets_(std::move(budgets)), violations_(budgets_.size(), 0) {}

void SloAccountant::on_complete(Cycles latency) noexcept {
  ++completed_;
  for (std::size_t i = 0; i < budgets_.size(); ++i) {
    if (latency > budgets_[i].budget) {
      ++violations_[i];
    }
  }
}

void SloAccountant::on_shed() noexcept {
  ++shed_;
  for (std::uint64_t& v : violations_) {
    ++v;
  }
}

std::uint64_t SloAccountant::total_violations() const noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t v : violations_) {
    total += v;
  }
  return total;
}

} // namespace hpmmap::serving
