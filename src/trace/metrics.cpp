#include "trace/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>

namespace hpmmap::trace {

namespace {
thread_local MetricRegistry* g_metrics_override = nullptr;
} // namespace

MetricRegistry& metrics() noexcept {
  static thread_local MetricRegistry r;
  return g_metrics_override != nullptr ? *g_metrics_override : r;
}

void set_metrics_override(MetricRegistry* m) noexcept { g_metrics_override = m; }

std::size_t Histogram::bucket(double x) noexcept {
  // Negative and NaN inputs count as 0, values past 2^64 as 2^64 - 1.
  const std::uint64_t v = !(x > 0.0)    ? 0
                          : x >= 0x1p64 ? ~std::uint64_t{0}
                                        : static_cast<std::uint64_t>(x);
  // shift·S + (v >> shift): the identity below 2·S, then S buckets per
  // power of two.
  const auto width = static_cast<unsigned>(std::bit_width(v));
  const unsigned shift = width > kSubBits + 1 ? width - kSubBits - 1 : 0;
  return shift * kSubBuckets + (v >> shift);
}

double Histogram::quantile(double q) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) {
    return 0.0;
  }
  const auto rank = std::min(
      static_cast<std::uint64_t>(std::clamp(q, 0.0, 1.0) * static_cast<double>(n)), n - 1);
  // The walk is bounded by the array, not by n: restored snapshot bytes
  // whose counts disagree with n stop at the last bucket.
  std::size_t i = 0;
  for (std::uint64_t seen = counts_[0]; seen <= rank && i + 1 < kBuckets;) {
    seen += counts_[++i];
  }
  const std::size_t shift = std::max<std::size_t>(i / kSubBuckets, 1) - 1;
  const std::uint64_t lo = (i - shift * kSubBuckets) << shift;
  const double mid =
      static_cast<double>(lo) + static_cast<double>((std::uint64_t{1} << shift) - 1) / 2.0;
  return std::min(std::max(mid, min()), max());
}

std::string MetricRegistry::report() const {
  std::string out;
  char line[256];
  if (!counters_.empty()) {
    out += "counters:\n";
    for (const auto& [name, value] : counters_) {
      std::snprintf(line, sizeof(line), "  %-32s %llu\n", name.c_str(),
                    static_cast<unsigned long long>(value));
      out += line;
    }
  }
  if (!histograms_.empty()) {
    out += "histograms:\n";
    for (const auto& [name, h] : histograms_) {
      std::snprintf(line, sizeof(line),
                    "  %-32s n=%llu mean=%.1f p50=%.1f p95=%.1f p99=%.1f max=%.1f\n",
                    name.c_str(), static_cast<unsigned long long>(h.count()), h.mean(), h.p50(),
                    h.p95(), h.p99(), h.max());
      out += line;
    }
  }
  return out;
}

} // namespace hpmmap::trace
