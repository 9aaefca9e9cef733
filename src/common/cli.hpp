// Numeric command-line option values, shared by the CLI front ends
// (run_experiment, mmprof): a value that does not parse or is out of
// range exits 1 with a message naming the option.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace hpmmap {

/// A whole-number option's value: a decimal number in [min, max].
inline std::uint64_t parse_whole(const char* option, const char* text, std::uint64_t min,
                                 std::uint64_t max) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (std::isdigit(static_cast<unsigned char>(text[0])) == 0 || *end != '\0' ||
      errno == ERANGE || v < min || v > max) {
    std::fprintf(stderr, "%s needs a whole number >= %llu (got '%s')\n", option,
                 static_cast<unsigned long long>(min), text);
    std::exit(1);
  }
  return v;
}

/// A real-valued option's value: a finite decimal number > 0.
inline double parse_positive(const char* option, const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v) || v <= 0.0) {
    std::fprintf(stderr, "%s needs a finite number > 0 (got '%s')\n", option, text);
    std::exit(1);
  }
  return v;
}

} // namespace hpmmap
