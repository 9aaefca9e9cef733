// Page cache model.
//
// Linux spends nearly all free memory on the page cache; a competing
// kernel build fills it with source files and object churn. Reclaim then
// has to shrink the cache page by page — cheap while entries are clean,
// expensive (writeback) once the clean tail is gone. This is the
// mechanism behind the Figure 3/5 "small faults cost 475k cycles under
// load" behaviour.
//
// Cache blocks are *movable* in the kernel's sense: compaction may
// relocate them to assemble contiguous 2M regions, so the cache supports
// address lookup and relocation.
//
// There is no per-block heap state: the LRU is a FIFO of frame indices
// (blocks enter at the back and are reclaimed from the front), dirtiness
// and order live in the per-frame meta byte of the buddy's hw::MemMap
// (kCacheClean/kCacheDirty heads), and block_containing() is an
// O(orders) align-down probe of that meta instead of an ordered-map
// search — grow/shrink stay O(1) per block. relocate() rewrites its
// entry in place after a linear find; only successful compaction
// calls it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>

#include "common/types.hpp"
#include "hw/mem_map.hpp"
#include "linux_mm/buddy_allocator.hpp"

namespace hpmmap::snapshot {
struct Access;
}

namespace hpmmap::mm {

class PageCache {
 public:
  /// `dirty_fraction`: probability a cached block needs writeback before
  /// it can be reclaimed (compiler temp output vs read-only source).
  explicit PageCache(BuddyAllocator& buddy, double dirty_fraction = 0.3);

  /// Read `bytes` of file data into the cache: allocates order-`order`
  /// blocks from the buddy until satisfied or free memory reaches the
  /// floor (page-cache fills stop at the low watermark and let kswapd
  /// take over; they never drain the atomic reserves). Returns bytes
  /// actually cached.
  std::uint64_t grow(std::uint64_t bytes, unsigned order, bool dirty);

  /// Free-memory floor below which grow() refuses to allocate.
  void set_free_floor(std::uint64_t bytes) noexcept { free_floor_ = bytes; }
  [[nodiscard]] std::uint64_t free_floor() const noexcept { return free_floor_; }

  /// Adopt an already-allocated buddy block into the cache (a process
  /// exits but its file data stays cached). The block must have come
  /// from this cache's buddy and must not be freed by the caller.
  void adopt(Addr addr, unsigned order, bool dirty);

  /// Drop cached blocks until `bytes` have been freed back to the buddy
  /// or the cache is empty (LRU order).
  struct ShrinkResult {
    std::uint64_t bytes_freed = 0;
    std::uint64_t writeback_blocks = 0;
    std::uint64_t clean_blocks = 0;
  };
  ShrinkResult shrink(std::uint64_t bytes);

  /// Drop everything (workload exit).
  void clear();

  /// The cache block containing `addr`, if any, as (block base, order).
  [[nodiscard]] std::optional<std::pair<Addr, unsigned>> block_containing(Addr addr) const {
    return buddy_.mem_map().block_containing(addr, hw::kCacheStates, buddy_.max_order());
  }

  /// Compaction support: the block at `old_addr` now lives at
  /// `new_addr`. LRU position and dirtiness are preserved.
  void relocate(Addr old_addr, Addr new_addr);

  /// Visit every cached block as (base, order, dirty) in ascending
  /// address order (deterministic; the invariant auditor's sweep).
  /// O(frames) meta scan — audits, not the hot path.
  template <typename Fn>
  void for_each_block(Fn&& fn) const {
    buddy_.mem_map().for_each_head([&](Addr a, hw::FrameState st, unsigned o) {
      if (st == hw::FrameState::kCacheClean || st == hw::FrameState::kCacheDirty) {
        fn(a, o, st == hw::FrameState::kCacheDirty);
      }
    });
  }

  /// Visit the LRU front (oldest) to back as (base, order, dirty) — the
  /// auditor's walk, which it checks against block_count().
  template <typename Fn>
  void for_each_lru(Fn&& fn) const {
    const hw::MemMap& m = buddy_.mem_map();
    for (const std::uint32_t idx : lru_) {
      fn(m.addr_of(idx), m.order(idx), m.state(idx) == hw::FrameState::kCacheDirty);
    }
  }

  [[nodiscard]] std::uint64_t cached_bytes() const noexcept { return cached_bytes_; }
  [[nodiscard]] std::size_t block_count() const noexcept { return count_; }
  [[nodiscard]] double dirty_fraction() const noexcept { return dirty_fraction_; }
  void set_dirty_fraction(double f) noexcept { dirty_fraction_ = f; }

  /// Error-injection hook for auditor tests ONLY: drop the LRU entry at
  /// position `pos` (0 = oldest) without touching the block count or the
  /// mem_map, so the LRU walk and the count disagree.
  void corrupt_drop_lru_entry(std::size_t pos);

 private:
  friend struct hpmmap::snapshot::Access;

  void push_back_block(Addr addr, unsigned order, bool dirty);
  /// Reclaim the oldest block: off the LRU, meta cleared, freed to the
  /// buddy. Returns its (order, dirty).
  std::pair<unsigned, bool> free_oldest();

  BuddyAllocator& buddy_;
  std::deque<std::uint32_t> lru_; // frame indices, oldest at the front
  std::size_t count_ = 0;         // kept apart from lru_ for the auditor
  std::uint64_t cached_bytes_ = 0;
  std::uint64_t free_floor_ = 0;
  double dirty_fraction_;
  std::uint64_t grow_count_ = 0; // deterministic dirty assignment
};

} // namespace hpmmap::mm
