// Unit tests: statistics utilities.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/stats.hpp"
#include "trace/metrics.hpp"

namespace hpmmap {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stdev(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 5.0);
  EXPECT_EQ(s.max(), 5.0);
}

TEST(RunningStats, KnownMeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.add(x);
  }
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1: sum sq dev = 32, / 7
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
}

TEST(RunningStats, MinMaxSum) {
  RunningStats s;
  s.add(3.0);
  s.add(-1.0);
  s.add(10.0);
  EXPECT_EQ(s.min(), -1.0);
  EXPECT_EQ(s.max(), 10.0);
  EXPECT_EQ(s.sum(), 12.0);
}

TEST(RunningStats, MergeMatchesCombined) {
  RunningStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = i * 0.7 - 3.0;
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_EQ(a.mean(), mean);
  RunningStats c;
  c.merge(a);
  EXPECT_EQ(c.count(), 2u);
  EXPECT_EQ(c.mean(), mean);
}

TEST(RunningStats, NumericallyStableForLargeCycleCounts) {
  RunningStats s;
  // Cycle counts around 1e13 with small relative spread.
  for (int i = 0; i < 1000; ++i) {
    s.add(1e13 + i);
  }
  EXPECT_NEAR(s.mean(), 1e13 + 499.5, 1.0);
  EXPECT_GT(s.variance(), 0.0);
}

TEST(Samples, PercentileSingle) {
  Samples s;
  s.add(42.0);
  EXPECT_EQ(s.percentile(0), 42.0);
  EXPECT_EQ(s.percentile(50), 42.0);
  EXPECT_EQ(s.percentile(100), 42.0);
}

TEST(Samples, PercentileInterpolates) {
  Samples s;
  for (double x : {10.0, 20.0, 30.0, 40.0}) {
    s.add(x);
  }
  EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 40.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 25.0);
}

TEST(Samples, PercentileAfterMoreAdds) {
  Samples s;
  s.add(1.0);
  EXPECT_EQ(s.percentile(50), 1.0);
  s.add(3.0); // must invalidate the sorted cache
  EXPECT_DOUBLE_EQ(s.percentile(50), 2.0);
}

TEST(Samples, MeanStdev) {
  Samples s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.add(x);
  }
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stdev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Samples, EmptySafe) {
  Samples s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stdev(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
  EXPECT_EQ(s.percentile(50), 0.0);
}

// Deterministic LCG (MMIX constants) so the histogram accuracy check is
// reproducible without seeding std::mt19937 differently per platform.
class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : state_(seed) {}
  double uniform01() noexcept {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(state_ >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

TEST(TraceHistogram, DifferentialAgainstExactSortedLognormal) {
  // Bounds the trace histogram's percentiles against the exact sorted
  // sample on a lognormal stream of whole cycle counts (median 20k
  // cycles; the shape fault and request latencies take: a tight body
  // with a multiplicative tail). Same nearest-rank rule on both sides,
  // so the only error is the bucket width: kRelativeError at every q.
  trace::Histogram h;
  std::vector<double> all;
  Lcg rng(20240);
  for (int i = 0; i < 30000; ++i) {
    // Box-Muller from two uniforms; lognormal with sigma 0.8.
    const double u1 = std::max(rng.uniform01(), 1e-12);
    const double u2 = rng.uniform01();
    const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * 3.14159265358979 * u2);
    const double x = std::floor(20000.0 * std::exp(0.8 * z));
    h.add(x);
    all.push_back(x);
  }
  std::sort(all.begin(), all.end());
  double previous = 0.0;
  for (const double q : {0.50, 0.95, 0.99, 0.999}) {
    const auto rank = static_cast<std::size_t>(q * static_cast<double>(all.size()));
    const double truth = all[std::min(rank, all.size() - 1)];
    const double estimate = h.quantile(q);
    EXPECT_NEAR(estimate, truth, trace::Histogram::kRelativeError * truth) << "q=" << q;
    EXPECT_GE(estimate, previous) << "q=" << q;
    previous = estimate;
  }
  EXPECT_EQ(h.count(), 30000u);
  EXPECT_DOUBLE_EQ(h.max(), all.back());
  EXPECT_DOUBLE_EQ(h.min(), all.front());
  EXPECT_LE(h.p99(), h.max());
}

TEST(TraceHistogram, ExactBelowTwoSubBucketRunsAndClampedToRange) {
  trace::Histogram h;
  EXPECT_EQ(h.p50(), 0.0);
  for (int v = 0; v < 2 * static_cast<int>(trace::Histogram::kSubBuckets); ++v) {
    h.add(static_cast<double>(v));
  }
  EXPECT_EQ(h.p50(), 32.0); // rank floor(0.5 * 64) of 0..63, one bucket each
  EXPECT_EQ(h.quantile(0.0), 0.0);
  EXPECT_EQ(h.quantile(1.0), 63.0);
  // Values past 2^64 and below zero land in the end buckets; reported
  // values stay inside the observed [min, max].
  h.add(1e30);
  h.add(-5.0);
  EXPECT_EQ(h.quantile(0.0), 0.0);
  EXPECT_GE(h.quantile(1.0), 0x1p63);
  EXPECT_LE(h.quantile(1.0), h.max());
}

TEST(TraceHistogram, WalkStaysInBoundsWhenCountsDisagreeWithTotal) {
  // Snapshots restore a histogram as raw bytes, so its bucket counts
  // may not sum to count(). Zeroed buckets under a count of 1000 must
  // end the percentile walk at the last bucket, not past the array.
  trace::Histogram h;
  for (int v = 1; v <= 1000; ++v) {
    h.add(static_cast<double>(v));
  }
  constexpr std::size_t kCountBytes = trace::Histogram::kBuckets * sizeof(std::uint64_t);
  static_assert(sizeof(trace::Histogram) == sizeof(RunningStats) + kCountBytes);
  std::memset(reinterpret_cast<unsigned char*>(&h) + sizeof(RunningStats), 0, kCountBytes);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.p50(), 1000.0); // the walk's end, clamped to max
  EXPECT_EQ(h.p99(), 1000.0);
}

} // namespace
} // namespace hpmmap
