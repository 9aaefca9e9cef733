// HugeTLBfs: preallocated per-NUMA-zone large-page pools (§II-C).
//
// The pools are reserved at boot from pristine (unfragmented) zones —
// the real system's `hugepages=` boot parameter — and are invisible to
// the normal allocator afterwards. That exclusivity is the double-edged
// sword Figure 5 documents: hugetlb faults always find memory, while the
// rest of the system fights over what is left.
//
// Each zone's free pages are a LIFO stack of frame indices into that
// zone's hw::MemMap, whose head frames carry state kHugetlbPool, so the
// auditor can cross-check the stack against the map.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "hw/mem_map.hpp"
#include "linux_mm/memory_system.hpp"

namespace hpmmap::snapshot {
struct Access;
}

namespace hpmmap::mm {

struct HugetlbStats {
  std::uint64_t pool_pages_total = 0;
  std::uint64_t faults_served = 0;
  std::uint64_t pool_exhausted = 0;
};

class HugetlbPool {
 public:
  /// Reserve `bytes_per_zone` of 2M pages from every zone. Must run at
  /// "boot" (before any fragmentation); aborts if reservation fails,
  /// matching a failed hugepages= boot line.
  HugetlbPool(MemorySystem& memory, std::uint64_t bytes_per_zone);
  ~HugetlbPool();

  HugetlbPool(const HugetlbPool&) = delete;
  HugetlbPool& operator=(const HugetlbPool&) = delete;

  /// Take one 2M page, preferring `zone`, spilling to any other zone
  /// with free pool pages. nullopt when every pool is empty (the
  /// application gets SIGBUS on the real system).
  [[nodiscard]] std::optional<std::pair<Addr, ZoneId>> alloc_page(ZoneId zone);

  /// Return a page to its zone's pool.
  void free_page(ZoneId zone, Addr addr);

  [[nodiscard]] std::uint64_t free_pages(ZoneId zone) const;
  [[nodiscard]] std::uint64_t total_pages(ZoneId zone) const;
  [[nodiscard]] const HugetlbStats& stats() const noexcept { return stats_; }

  /// Visit the zone's free pool pages as (addr), newest first (stack
  /// order) — the invariant auditor's frame sweep.
  template <typename Fn>
  void for_each_pool_page(ZoneId zone, Fn&& fn) const {
    HPMMAP_ASSERT(zone < pool_.size(), "zone out of range");
    const hw::MemMap& m = memory_.buddy(zone).mem_map();
    const std::vector<std::uint32_t>& stack = pool_[zone].stack;
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      fn(m.addr_of(*it));
    }
  }

 private:
  friend struct hpmmap::snapshot::Access;

  /// Stack push (ctor reservation and free_page share it).
  void push(ZoneId zone, Addr addr);

  /// One zone's free stack: frame indices into the zone's MemMap, top at
  /// the back. A stack only ever holds frames of its own zone
  /// (reservation and free_page both key by the frame's physical zone).
  /// `count` is kept apart from the stack for the auditor.
  struct ZonePool {
    std::vector<std::uint32_t> stack;
    std::uint64_t count = 0;
  };

  MemorySystem& memory_;
  std::vector<ZonePool> pool_;
  std::vector<std::uint64_t> total_;
  HugetlbStats stats_;
};

} // namespace hpmmap::mm
