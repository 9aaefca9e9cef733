#include "linux_mm/page_cache.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace hpmmap::mm {

using hw::FrameState;
using hw::MemMap;

PageCache::PageCache(BuddyAllocator& buddy, double dirty_fraction)
    : buddy_(buddy), dirty_fraction_(dirty_fraction) {}

void PageCache::push_back_block(Addr addr, unsigned order, bool dirty) {
  MemMap& m = buddy_.mem_map();
  const std::uint32_t idx = m.index_of(addr);
  HPMMAP_ASSERT(m.state(idx) == FrameState::kUntracked, "block already cached");
  m.set_head(idx, dirty ? FrameState::kCacheDirty : FrameState::kCacheClean, order);
  lru_.push_back(idx);
  ++count_;
  cached_bytes_ += BuddyAllocator::order_bytes(order);
}

std::pair<unsigned, bool> PageCache::free_oldest() {
  MemMap& m = buddy_.mem_map();
  const std::uint32_t idx = lru_.front();
  lru_.pop_front();
  --count_;
  const unsigned order = m.order(idx);
  const bool dirty = m.state(idx) == FrameState::kCacheDirty;
  m.clear_head(idx);
  cached_bytes_ -= BuddyAllocator::order_bytes(order);
  buddy_.free(m.addr_of(idx), order);
  return {order, dirty};
}

std::uint64_t PageCache::grow(std::uint64_t bytes, unsigned order, bool dirty) {
  std::uint64_t grown = 0;
  const std::uint64_t block_bytes = BuddyAllocator::order_bytes(order);
  while (grown < bytes) {
    if (buddy_.free_bytes() < free_floor_ + block_bytes) {
      break;
    }
    auto alloc = buddy_.alloc(order);
    if (!alloc.has_value()) {
      break;
    }
    // When the caller doesn't force dirtiness, mark blocks dirty at the
    // configured rate using a deterministic rotation (no RNG needed for
    // an aggregate property).
    const bool is_dirty =
        dirty || (dirty_fraction_ > 0.0 &&
                  static_cast<double>(grow_count_ % 100) < dirty_fraction_ * 100.0);
    ++grow_count_;
    push_back_block(alloc->addr, order, is_dirty);
    grown += block_bytes;
  }
  return grown;
}

void PageCache::adopt(Addr addr, unsigned order, bool dirty) {
  push_back_block(addr, order, dirty);
}

PageCache::ShrinkResult PageCache::shrink(std::uint64_t bytes) {
  ShrinkResult result;
  while (result.bytes_freed < bytes && !lru_.empty()) {
    const auto [order, dirty] = free_oldest();
    result.bytes_freed += BuddyAllocator::order_bytes(order);
    if (dirty) {
      ++result.writeback_blocks;
    } else {
      ++result.clean_blocks;
    }
  }
  return result;
}

void PageCache::clear() {
  while (!lru_.empty()) {
    (void)free_oldest();
  }
  HPMMAP_ASSERT(cached_bytes_ == 0, "cache accounting drift");
}

void PageCache::relocate(Addr old_addr, Addr new_addr) {
  MemMap& m = buddy_.mem_map();
  const std::uint32_t io = m.index_of(old_addr);
  const FrameState st = m.state(io);
  HPMMAP_ASSERT(st == FrameState::kCacheClean || st == FrameState::kCacheDirty,
                "relocate of a block the cache does not own");
  const auto pos = std::find(lru_.begin(), lru_.end(), io);
  HPMMAP_ASSERT(pos != lru_.end(), "relocate of a block missing from the LRU");
  const unsigned order = m.order(io);
  m.clear_head(io);
  const std::uint32_t in = m.index_of(new_addr);
  // The target is normally a freshly-allocated (untracked) block, but
  // only another cache block is an outright error: compaction tests
  // relocate onto raw free space without reserving it first.
  HPMMAP_ASSERT(m.state(in) != FrameState::kCacheClean && m.state(in) != FrameState::kCacheDirty,
                "relocate target already cached");
  m.set_head(in, st, order);
  *pos = in;
}

void PageCache::corrupt_drop_lru_entry(std::size_t pos) {
  HPMMAP_ASSERT(pos < lru_.size(), "LRU position out of range");
  lru_.erase(lru_.begin() + static_cast<std::ptrdiff_t>(pos));
}

} // namespace hpmmap::mm
