// Unit + property tests: the buddy allocator (shared by the Linux zone
// allocator and HPMMAP's Kitten instance).
#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "linux_mm/buddy_allocator.hpp"

namespace hpmmap::mm {
namespace {

constexpr unsigned kMax = 10;

BuddyAllocator make(std::uint64_t bytes = 64 * MiB, Addr base = 0) {
  return BuddyAllocator(Range{base, base + bytes}, kMax);
}

TEST(Buddy, FreshAllocatorIsFullyFree) {
  auto b = make();
  EXPECT_EQ(b.free_bytes(), 64 * MiB);
  EXPECT_EQ(b.total_bytes(), 64 * MiB);
  EXPECT_TRUE(b.check_consistency());
  EXPECT_EQ(b.largest_free_order(), kMax);
}

TEST(Buddy, OrderBytes) {
  EXPECT_EQ(BuddyAllocator::order_bytes(0), 4 * KiB);
  EXPECT_EQ(BuddyAllocator::order_bytes(9), 2 * MiB);
  EXPECT_EQ(BuddyAllocator::order_bytes(10), 4 * MiB);
}

TEST(Buddy, OrderForBytes) {
  EXPECT_EQ(BuddyAllocator::order_for_bytes(1), 0u);
  EXPECT_EQ(BuddyAllocator::order_for_bytes(4 * KiB), 0u);
  EXPECT_EQ(BuddyAllocator::order_for_bytes(4 * KiB + 1), 1u);
  EXPECT_EQ(BuddyAllocator::order_for_bytes(2 * MiB), 9u);
  EXPECT_EQ(BuddyAllocator::order_for_bytes(1 * GiB), 18u);
}

TEST(Buddy, AllocDecrementsFree) {
  auto b = make();
  auto a = b.alloc(0);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(b.free_bytes(), 64 * MiB - 4 * KiB);
  EXPECT_TRUE(b.check_consistency());
}

TEST(Buddy, AllocSplitsFromLargest) {
  auto b = make(4 * MiB);
  auto a = b.alloc(0);
  ASSERT_TRUE(a.has_value());
  // One order-10 block split down to order 0: 10 split steps.
  EXPECT_EQ(a->split_steps, 10u);
  // The splits leave one free block at each order 0..9.
  for (unsigned o = 0; o < 10; ++o) {
    EXPECT_EQ(b.free_blocks(o), 1u) << "order " << o;
  }
}

TEST(Buddy, SecondSmallAllocNeedsNoSplit) {
  auto b = make(4 * MiB);
  (void)b.alloc(0);
  auto a = b.alloc(0);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->split_steps, 0u);
}

TEST(Buddy, FreeCoalescesBackToMaxOrder) {
  auto b = make(4 * MiB);
  auto a = b.alloc(0);
  ASSERT_TRUE(a.has_value());
  const unsigned merges = b.free(a->addr, 0);
  EXPECT_EQ(merges, 10u);
  EXPECT_EQ(b.free_blocks(kMax), 1u);
  EXPECT_EQ(b.free_bytes(), 4 * MiB);
  EXPECT_TRUE(b.check_consistency());
}

TEST(Buddy, BuddiesOnlyMergeWithEachOther) {
  auto b = make(16 * KiB); // orders 0..2 usable
  auto a0 = b.alloc(0);
  auto a1 = b.alloc(0);
  auto a2 = b.alloc(0);
  auto a3 = b.alloc(0);
  ASSERT_TRUE(a3.has_value());
  // Free two non-buddy neighbours: no merge possible.
  b.free(a1->addr, 0);
  b.free(a2->addr, 0);
  EXPECT_EQ(b.free_blocks(0), 2u);
  EXPECT_EQ(b.free_blocks(1), 0u);
  // Completing each pair coalesces all the way.
  b.free(a0->addr, 0);
  b.free(a3->addr, 0);
  EXPECT_EQ(b.free_bytes(), 16 * KiB);
  EXPECT_TRUE(b.check_consistency());
}

TEST(Buddy, ExhaustionReturnsNullopt) {
  auto b = make(8 * KiB);
  EXPECT_TRUE(b.alloc(0).has_value());
  EXPECT_TRUE(b.alloc(0).has_value());
  EXPECT_FALSE(b.alloc(0).has_value());
  EXPECT_EQ(b.stats().failed_allocs, 1u);
}

TEST(Buddy, CanAllocChecksWithoutSideEffects) {
  auto b = make(4 * MiB);
  EXPECT_TRUE(b.can_alloc(9));
  (void)b.alloc(10);
  EXPECT_FALSE(b.can_alloc(0));
  EXPECT_EQ(b.stats().allocs, 1u); // can_alloc did not allocate
}

TEST(Buddy, NonAlignedBaseSeedsGreedily) {
  // Base not aligned to max order: seeding must still tile the range.
  BuddyAllocator b(Range{12 * KiB, 12 * KiB + 8 * MiB}, kMax);
  EXPECT_EQ(b.free_bytes(), 8 * MiB);
  EXPECT_TRUE(b.check_consistency());
}

TEST(Buddy, AlignmentIsRelativeToBase) {
  // A buddy starting at a 2M-misaligned absolute address must still
  // produce internally-aligned order-9 blocks.
  BuddyAllocator b(Range{kMemorySectionSize, kMemorySectionSize + 16 * MiB}, kMax);
  auto a = b.alloc(9);
  ASSERT_TRUE(a.has_value());
  EXPECT_TRUE(is_aligned(a->addr - kMemorySectionSize, 2 * MiB));
}

TEST(Buddy, FragmentationZeroWhenPristine) {
  auto b = make(64 * MiB);
  EXPECT_DOUBLE_EQ(b.fragmentation(), 0.0);
}

TEST(Buddy, FragmentationRisesWithScatteredHoles) {
  auto b = make(64 * MiB);
  Rng rng(1);
  std::vector<Addr> held;
  for (int i = 0; i < 4000; ++i) {
    if (auto a = b.alloc(0)) {
      held.push_back(a->addr);
    }
  }
  // Free a scattered half: leaves many unmergeable order-0 holes.
  for (std::size_t i = 0; i < held.size(); i += 2) {
    b.free(held[i], 0);
  }
  EXPECT_GT(b.fragmentation(), 0.1);
  EXPECT_TRUE(b.check_consistency());
}

TEST(Buddy, ReserveExactTakesFreeRegion) {
  auto b = make(4 * MiB);
  EXPECT_TRUE(b.reserve_exact(0, 9));
  EXPECT_EQ(b.free_bytes(), 2 * MiB);
  EXPECT_TRUE(b.check_consistency());
  b.free(0, 9);
  EXPECT_EQ(b.free_bytes(), 4 * MiB);
}

TEST(Buddy, ReserveExactFailsOnAllocatedRegion) {
  auto b = make(4 * MiB);
  auto a = b.alloc(0); // carves from the bottom
  ASSERT_TRUE(a.has_value());
  EXPECT_FALSE(b.reserve_exact(0, 9));
}

TEST(Buddy, FreeBlockContaining) {
  auto b = make(4 * MiB);
  auto blk = b.free_block_containing(1 * MiB);
  ASSERT_TRUE(blk.has_value());
  EXPECT_EQ(blk->first, 0u);
  EXPECT_EQ(blk->second, kMax);
  (void)b.alloc(10); // now nothing is free
  EXPECT_FALSE(b.free_block_containing(1 * MiB).has_value());
}

TEST(Buddy, TakeFreeBlockRemovesExactBlock) {
  auto b = make(4 * MiB);
  (void)b.alloc(0); // fragments the freelists across orders
  ASSERT_EQ(b.free_blocks(9), 1u);
  auto blk = b.free_block_containing(2 * MiB);
  ASSERT_TRUE(blk.has_value());
  EXPECT_TRUE(b.take_free_block(blk->first, blk->second));
  EXPECT_FALSE(b.take_free_block(blk->first, blk->second)); // gone
  EXPECT_TRUE(b.check_consistency());
}

// --- property tests ------------------------------------------------------------

struct BuddyPropertyParams {
  std::uint64_t arena_bytes;
  unsigned max_order;
  std::uint64_t seed;
};

/// The case's name. ctest's test IDs (gtest_discover_tests) end in the
/// printed parameter, so printing by value keeps them stable; gtest's
/// default printer dumps the struct's bytes, padding included.
void PrintTo(const BuddyPropertyParams& p, std::ostream* os) {
  *os << "Arena" << p.arena_bytes / MiB << "MiB_Order" << p.max_order << "_Seed" << p.seed;
}

class BuddyProperty : public ::testing::TestWithParam<BuddyPropertyParams> {};

/// Random alloc/free interleaving preserves every invariant and never
/// loses or double-counts a byte.
TEST_P(BuddyProperty, RandomOpsPreserveInvariants) {
  const auto params = GetParam();
  BuddyAllocator b(Range{0, params.arena_bytes}, params.max_order);
  Rng rng(params.seed);
  std::vector<std::pair<Addr, unsigned>> held;
  std::uint64_t held_bytes = 0;

  for (int step = 0; step < 3000; ++step) {
    const bool do_alloc = held.empty() || rng.chance(0.55);
    if (do_alloc) {
      const unsigned order = static_cast<unsigned>(rng.uniform(params.max_order + 1));
      if (auto a = b.alloc(order)) {
        // Returned blocks are aligned and in-range.
        ASSERT_TRUE(is_aligned(a->addr, BuddyAllocator::order_bytes(order)));
        ASSERT_LE(a->addr + BuddyAllocator::order_bytes(order), params.arena_bytes);
        // No overlap with anything currently held.
        for (const auto& [addr, o] : held) {
          const Range lhs{a->addr, a->addr + BuddyAllocator::order_bytes(order)};
          const Range rhs{addr, addr + BuddyAllocator::order_bytes(o)};
          ASSERT_FALSE(lhs.overlaps(rhs));
        }
        held.emplace_back(a->addr, order);
        held_bytes += BuddyAllocator::order_bytes(order);
      }
    } else {
      const std::size_t idx = static_cast<std::size_t>(rng.uniform(held.size()));
      b.free(held[idx].first, held[idx].second);
      held_bytes -= BuddyAllocator::order_bytes(held[idx].second);
      held[idx] = held.back();
      held.pop_back();
    }
    ASSERT_EQ(b.free_bytes() + held_bytes, params.arena_bytes);
  }
  ASSERT_TRUE(b.check_consistency());
  // Releasing everything returns the arena to a fully-coalesced state.
  for (const auto& [addr, order] : held) {
    b.free(addr, order);
  }
  EXPECT_EQ(b.free_bytes(), params.arena_bytes);
  EXPECT_TRUE(b.check_consistency());
}

INSTANTIATE_TEST_SUITE_P(
    Arenas, BuddyProperty,
    ::testing::Values(BuddyPropertyParams{16 * MiB, 10, 1},
                      BuddyPropertyParams{16 * MiB, 10, 2},
                      BuddyPropertyParams{64 * MiB, 10, 3},
                      BuddyPropertyParams{8 * MiB, 6, 4},
                      BuddyPropertyParams{128 * MiB, 13, 5},
                      BuddyPropertyParams{kMemorySectionSize, 15, 6}));

} // namespace
} // namespace hpmmap::mm
