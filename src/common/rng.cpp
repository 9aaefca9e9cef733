#include "common/rng.hpp"

#include <cmath>
#include <numbers>

namespace hpmmap {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

/// SplitMix64: seed expander recommended by the xoshiro authors.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// FNV-1a for string salts.
constexpr std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c : s) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001b3ull;
  }
  return h;
}

} // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) {
    word = splitmix64(sm);
  }
}

Rng Rng::fork(std::uint64_t salt) const noexcept {
  // Mix the full parent state with the salt so sibling forks are
  // decorrelated even for adjacent salts.
  std::uint64_t mixed = s_[0] ^ rotl(s_[1], 13) ^ rotl(s_[2], 29) ^ rotl(s_[3], 47);
  std::uint64_t sm = mixed ^ (salt * 0x9e3779b97f4a7c15ull);
  return Rng(splitmix64(sm));
}

Rng Rng::fork(std::string_view salt) const noexcept { return fork(fnv1a(salt)); }

std::uint64_t Rng::next_u64() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::uniform(std::uint64_t bound) noexcept {
  if (bound == 0) {
    return 0;
  }
  // Lemire's nearly-divisionless method.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::uint64_t Rng::uniform(std::uint64_t lo, std::uint64_t hi) noexcept {
  return lo + uniform(hi - lo + 1);
}

double Rng::uniform_double() noexcept {
  // 53 random mantissa bits -> [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::normal() noexcept {
  // Box-Muller; guard against log(0).
  double u1 = uniform_double();
  while (u1 <= 0.0) {
    u1 = uniform_double();
  }
  const double u2 = uniform_double();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::normal(double mean, double stdev) noexcept { return mean + stdev * normal(); }

double Rng::lognormal_from_moments(double mean, double stdev) noexcept {
  if (mean <= 0.0) {
    return 0.0;
  }
  return lognormal(lognormal_params(mean, stdev));
}

Rng::LognormalParams Rng::lognormal_params(double mean, double stdev) noexcept {
  const double cv2 = (stdev / mean) * (stdev / mean);
  const double sigma2 = std::log1p(cv2);
  return LognormalParams{std::log(mean) - 0.5 * sigma2, std::sqrt(sigma2)};
}

double Rng::lognormal(const LognormalParams& p) noexcept {
  return std::exp(p.mu + p.sigma * normal());
}

double Rng::exponential(double mean) noexcept {
  double u = uniform_double();
  while (u <= 0.0) {
    u = uniform_double();
  }
  return -mean * std::log(u);
}

double Rng::pareto(double minimum, double alpha) noexcept {
  double u = uniform_double();
  while (u <= 0.0) {
    u = uniform_double();
  }
  return minimum / std::pow(u, 1.0 / alpha);
}

bool Rng::chance(double p) noexcept {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return uniform_double() < p;
}

} // namespace hpmmap
