// Snapshot images (DESIGN.md §12). A WorldImage is the bytes of every
// structure the simulation holds at a quiesced instant, in the order
// snapshot::Access's io() walkers list them; only the fingerprint and
// the engine clock are kept decoded beside the bytes, for callers that
// inspect an image without restoring it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace hpmmap::snapshot {

struct EngineImage {
  Cycles now = 0;
  std::uint64_t next_seq = 1;
  std::uint64_t fired = 0;
  std::uint64_t cancelled = 0;
  bool stopped = false;
};

/// Every armed event belongs to a known owner; the kind names the member
/// function the original lambda called, so restore re-arms a callback
/// with identical behavior.
enum class EventKind : std::uint8_t {
  kKswapd,      // Node::kswapd_tick
  kThpScan,     // ThpService::scan_tick
  kThpWake,     // ThpService::wake_tick
  kThpCollapse, // ThpService::collapse_tick(token)
  kThpMerge,    // ThpService::finish_merge(token)
  kBuildSpawn,  // KernelBuild::spawn_job(slot)
  kBuildStep,   // KernelBuild::job_step(slot)
};

struct EventRecord {
  Cycles when = 0;
  std::uint64_t seq = 0;
  bool daemon = false;
  EventKind kind = EventKind::kKswapd;
  std::uint32_t node_index = 0;
  std::uint32_t build_index = 0;
  std::uint64_t aux = 0; // THP token or build job slot
};

/// Allocates image bytes. Freed blocks of 32 MiB and more are kept for
/// the next capture to reuse: writing a large image into fresh pages
/// costs more in page faults than the copy itself.
struct ImageAllocator {
  using value_type = char;
  template <class U>
  struct rebind {
    using other = ImageAllocator;
  };
  [[nodiscard]] char* allocate(std::size_t n);
  void deallocate(char* p, std::size_t n) noexcept;
  friend bool operator==(ImageAllocator, ImageAllocator) noexcept { return true; }
};
using Bytes = std::basic_string<char, std::char_traits<char>, ImageAllocator>;

/// Structural identity of a world: (key, value) pairs such as zone
/// extents and build counts.
using Fingerprint = std::vector<std::pair<std::string, std::uint64_t>>;

/// Full quiesced-instant state of an engine plus its nodes and builds.
/// Copyable: the amortized-aging sweep captures once and restores the
/// same image into many worlds.
struct WorldImage {
  /// Restore rejects a target world whose fingerprint differs.
  Fingerprint fingerprint;
  EngineImage engine;
  /// The encoded world; begins with the fingerprint and engine above.
  Bytes bytes;
};

} // namespace hpmmap::snapshot
