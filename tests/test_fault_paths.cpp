// Unit tests: demand-paging fault handler, THP (fault path, khugepaged,
// mlock splitting), HugeTLBfs pools, the swap path, and first-touch runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "hw/bandwidth.hpp"
#include "hw/phys_mem.hpp"
#include "linux_mm/address_space.hpp"
#include "linux_mm/fault.hpp"
#include "linux_mm/hugetlbfs.hpp"
#include "linux_mm/memory_system.hpp"
#include "linux_mm/smp.hpp"
#include "linux_mm/thp.hpp"
#include "sim/engine.hpp"

namespace hpmmap::mm {
namespace {

constexpr Addr kVa = 0x5000'0000'0000ull;

struct Fixture {
  hw::PhysicalMemory phys{2 * GiB, 2};
  hw::BandwidthModel bw{2, 5.6};
  CostModel costs{};
  MemorySystem ms{phys, bw, Rng(9), costs};
  sim::Engine engine;
  ThpService thp{ms, engine, [] { return 1.0; }};
  FaultHandler handler{ms, &thp, nullptr};
  AddressSpace as{1};

  Fixture() { as.set_zone_policy(AddressSpace::ZonePolicy::kSingle, 0, 2); }

  void add_vma(Addr begin, std::uint64_t len, bool thp_eligible, Prot prot = kProtRW) {
    Vma v;
    v.range = Range{begin, begin + len};
    v.prot = prot;
    v.kind = VmaKind::kAnon;
    v.thp_eligible = thp_eligible;
    ASSERT_EQ(as.vmas().insert(v), Errno::kOk);
  }
};

TEST(FaultHandler, NoVmaIsSegfault) {
  Fixture f;
  const FaultResult r = f.handler.handle(f.as, kVa, 0);
  EXPECT_EQ(r.err, Errno::kFault);
  EXPECT_EQ(r.kind, FaultKind::kInvalid);
}

TEST(FaultHandler, ProtNoneIsSegfault) {
  Fixture f;
  f.add_vma(kVa, 2 * MiB, false, Prot::kNone);
  const FaultResult r = f.handler.handle(f.as, kVa, 0);
  EXPECT_EQ(r.err, Errno::kFault);
}

TEST(FaultHandler, SmallFaultMapsAndCosts) {
  Fixture f;
  f.add_vma(kVa, 64 * KiB, false); // too small for THP
  const FaultResult r = f.handler.handle(f.as, kVa + 5000, 0);
  EXPECT_EQ(r.err, Errno::kOk);
  EXPECT_EQ(r.kind, FaultKind::kSmall);
  EXPECT_EQ(r.used, PageSize::k4K);
  // Idle-node small fault: Figure 2 territory (hundreds to a few
  // thousand cycles), never the large-page range.
  EXPECT_GT(r.cost, 500u);
  EXPECT_LT(r.cost, 50'000u);
  const auto t = f.as.page_table().walk(kVa + 5000);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->size, PageSize::k4K);
}

TEST(FaultHandler, RepeatFaultOnMappedPageIsCheapSpurious) {
  Fixture f;
  f.add_vma(kVa, 64 * KiB, false);
  (void)f.handler.handle(f.as, kVa, 0);
  const FaultResult r = f.handler.handle(f.as, kVa, 0);
  EXPECT_EQ(r.err, Errno::kOk);
  EXPECT_LT(r.cost, 5'000u);
}

TEST(FaultHandler, ThpEligibleRegionGetsLargePage) {
  Fixture f;
  f.add_vma(align_down(kVa, kLargePageSize), 8 * MiB, true);
  const FaultResult r = f.handler.handle(f.as, align_down(kVa, kLargePageSize) + 12345, 0);
  EXPECT_EQ(r.err, Errno::kOk);
  EXPECT_EQ(r.kind, FaultKind::kLarge);
  EXPECT_EQ(r.used, PageSize::k2M);
  // 2 MiB zeroing dominates: hundreds of thousands of cycles (Fig 2).
  EXPECT_GT(r.cost, 100'000u);
}

TEST(FaultHandler, UnalignedVmaHeadFallsBackToSmall) {
  Fixture f;
  // VMA starts 4K past alignment: the first aligned 2M region is not
  // fully covered at its head -> the §II-A alignment problem.
  const Addr base = align_down(kVa, kLargePageSize) + 4 * KiB;
  f.add_vma(base, kLargePageSize, true);
  const FaultResult r = f.handler.handle(f.as, base, 0);
  EXPECT_EQ(r.used, PageSize::k4K);
}

TEST(FaultHandler, SmallFaultCountsAsMergeFollowerWhenLocked) {
  Fixture f;
  f.add_vma(kVa, 64 * KiB, false);
  f.as.lock_until(1'000'000);
  const FaultResult r = f.handler.handle(f.as, kVa, /*now=*/200'000);
  EXPECT_EQ(r.kind, FaultKind::kMergeFollower);
  EXPECT_EQ(r.lock_wait, 800'000u);
  EXPECT_GE(r.cost, 800'000u);
}

TEST(FaultHandler, SwappedPagePaysDiskRead) {
  Fixture f;
  f.add_vma(kVa, 64 * KiB, false);
  (void)f.handler.handle(f.as, kVa, 0);
  // Evict (what Node::maybe_swap does).
  const auto t = f.as.page_table().walk(kVa);
  ASSERT_TRUE(t.has_value());
  f.as.page_table().unmap(kVa, PageSize::k4K);
  f.ms.free_pages(0, align_down(t->phys, kSmallPageSize), 0);
  f.as.mark_swapped(kVa);
  const FaultResult r = f.handler.handle(f.as, kVa, 0);
  EXPECT_EQ(r.err, Errno::kOk);
  EXPECT_GT(r.cost, 1'000'000u); // disk, not DRAM
  // One-shot: the mark is consumed.
  EXPECT_EQ(f.as.swapped_pages(), 0u);
}

TEST(FaultStats, RecordsByKind) {
  FaultStats s;
  s.record(FaultKind::kSmall, 100);
  s.record(FaultKind::kSmall, 200);
  s.record(FaultKind::kLarge, 1000);
  EXPECT_EQ(s.count[0], 2u);
  EXPECT_EQ(s.total_cycles[0], 300u);
  EXPECT_EQ(s.count[1], 1u);
}

// --- THP service -----------------------------------------------------------------

TEST(Thp, RegionEligibilityRules) {
  Fixture f;
  const Addr base = align_down(kVa, kLargePageSize);
  f.add_vma(base, 4 * MiB, true);
  const Vma* vma = f.as.vmas().find(base);
  ASSERT_NE(vma, nullptr);
  EXPECT_TRUE(f.thp.region_eligible(f.as, *vma, base + 123));
  // Existing small mapping in the region kills eligibility.
  ASSERT_EQ(f.as.page_table().map(base + 8 * KiB, 0, PageSize::k4K, kProtRW), Errno::kOk);
  EXPECT_FALSE(f.thp.region_eligible(f.as, *vma, base + 123));
  // Other regions unaffected.
  EXPECT_TRUE(f.thp.region_eligible(f.as, *vma, base + 2 * MiB));
}

TEST(Thp, LockedVmaNotEligible) {
  Fixture f;
  const Addr base = align_down(kVa, kLargePageSize);
  f.add_vma(base, 4 * MiB, true);
  auto pieces = f.as.vmas().remove(Range{base, base + 4 * MiB});
  for (auto& p : pieces) {
    p.locked = true;
    ASSERT_EQ(f.as.vmas().insert(p), Errno::kOk);
  }
  const Vma* vma = f.as.vmas().find(base);
  EXPECT_FALSE(f.thp.region_eligible(f.as, *vma, base));
}

TEST(Thp, MergeCompletesAndInstallsLargeLeaf) {
  Fixture f;
  f.thp.register_process(&f.as);
  const Addr base = align_down(kVa, kLargePageSize);
  f.add_vma(base, 2 * MiB, true);
  // Map 256 small pages so the region is a merge candidate.
  for (unsigned i = 0; i < 256; ++i) {
    const AllocOutcome out = f.ms.alloc_pages(0, 0);
    ASSERT_TRUE(out.ok);
    ASSERT_EQ(f.as.page_table().map(base + i * 4 * KiB, out.addr, PageSize::k4K, kProtRW),
              Errno::kOk);
  }
  f.thp.note_fallback(&f.as, base);
  f.thp.scan_once();
  f.engine.run_until(f.engine.now() + 1'000'000'000ull);
  EXPECT_EQ(f.thp.stats().merges_completed, 1u);
  const auto t = f.as.page_table().walk(base + 1 * MiB);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->size, PageSize::k2M);
  EXPECT_EQ(f.as.page_table().small_count_in_2m(base), 0u);
}

TEST(Thp, MergeLocksAddressSpaceWhileRunning) {
  Fixture f;
  f.thp.register_process(&f.as);
  const Addr base = align_down(kVa, kLargePageSize);
  f.add_vma(base, 2 * MiB, true);
  for (unsigned i = 0; i < 256; ++i) {
    const AllocOutcome out = f.ms.alloc_pages(0, 0);
    ASSERT_TRUE(out.ok);
    ASSERT_EQ(f.as.page_table().map(base + i * 4 * KiB, out.addr, PageSize::k4K, kProtRW),
              Errno::kOk);
  }
  f.thp.note_fallback(&f.as, base);
  f.thp.scan_once();
  // Step forward in small increments; the AS must be observed locked at
  // some point before the merge completes.
  bool saw_lock = false;
  for (int i = 0; i < 400 && f.thp.stats().merges_completed == 0; ++i) {
    f.engine.run_until(f.engine.now() + 100'000);
    saw_lock = saw_lock || f.as.locked_at(f.engine.now());
  }
  EXPECT_TRUE(saw_lock);
  EXPECT_GT(f.thp.stats().total_merge_lock_cycles, 0u);
}

TEST(Thp, MergeAbortsWhenRegionMunmapped) {
  Fixture f;
  f.thp.register_process(&f.as);
  const Addr base = align_down(kVa, kLargePageSize);
  f.add_vma(base, 2 * MiB, true);
  std::vector<Addr> frames;
  for (unsigned i = 0; i < 256; ++i) {
    const AllocOutcome out = f.ms.alloc_pages(0, 0);
    ASSERT_TRUE(out.ok);
    frames.push_back(out.addr);
    ASSERT_EQ(f.as.page_table().map(base + i * 4 * KiB, out.addr, PageSize::k4K, kProtRW),
              Errno::kOk);
  }
  const std::uint64_t free_before_merge = f.ms.free_bytes(0);
  f.thp.note_fallback(&f.as, base);
  f.thp.scan_once();
  // Remove the VMA before the merge completes.
  f.as.vmas().remove(Range{base, base + 2 * MiB});
  f.engine.run_until(f.engine.now() + 1'000'000'000ull);
  EXPECT_EQ(f.thp.stats().merges_completed, 0u);
  // The pre-allocated huge page went back: free memory did not leak.
  EXPECT_EQ(f.ms.free_bytes(0), free_before_merge);
}

TEST(Thp, UnregisterCancelsPendingWork) {
  Fixture f;
  f.thp.register_process(&f.as);
  f.thp.note_fallback(&f.as, align_down(kVa, kLargePageSize));
  f.thp.unregister_process(&f.as);
  f.thp.scan_once(); // must not touch the unregistered space
  f.engine.run_until(f.engine.now() + 1'000'000'000ull);
  EXPECT_EQ(f.thp.stats().merges_completed, 0u);
}

TEST(Thp, SplitForMlockBreaksLargePages) {
  Fixture f;
  const Addr base = align_down(kVa, kLargePageSize);
  f.add_vma(base, 4 * MiB, true);
  const AllocOutcome out = f.ms.alloc_pages(0, kLargePageOrder);
  ASSERT_TRUE(out.ok);
  ASSERT_EQ(f.as.page_table().map(base, out.addr, PageSize::k2M, kProtRW), Errno::kOk);
  const unsigned splits = f.thp.split_for_mlock(f.as, Range{base, base + 2 * MiB});
  EXPECT_EQ(splits, 1u);
  const auto t = f.as.page_table().walk(base + 1 * MiB);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->size, PageSize::k4K); // §II-B: pinning splits THP pages
  EXPECT_EQ(f.thp.stats().split_on_mlock, 1u);
}

// --- HugeTLBfs -------------------------------------------------------------------

TEST(Hugetlb, BootReservationSizesPools) {
  Fixture f;
  HugetlbPool pool(f.ms, 256 * MiB);
  EXPECT_EQ(pool.total_pages(0), 128u);
  EXPECT_EQ(pool.total_pages(1), 128u);
  EXPECT_EQ(pool.free_pages(0), 128u);
  EXPECT_EQ(pool.stats().pool_pages_total, 256u);
}

TEST(Hugetlb, AllocPrefersRequestedZoneThenSpills) {
  Fixture f;
  HugetlbPool pool(f.ms, 8 * MiB); // 4 pages per zone
  for (int i = 0; i < 4; ++i) {
    const auto page = pool.alloc_page(0);
    ASSERT_TRUE(page.has_value());
    EXPECT_EQ(page->second, 0u);
  }
  const auto spilled = pool.alloc_page(0);
  ASSERT_TRUE(spilled.has_value());
  EXPECT_EQ(spilled->second, 1u); // zone 0 empty -> zone 1
}

TEST(Hugetlb, ExhaustionReturnsNullopt) {
  Fixture f;
  HugetlbPool pool(f.ms, 4 * MiB);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(pool.alloc_page(0).has_value());
  }
  EXPECT_FALSE(pool.alloc_page(0).has_value());
  EXPECT_EQ(pool.stats().pool_exhausted, 1u);
}

TEST(Hugetlb, FreeReturnsToPool) {
  Fixture f;
  HugetlbPool pool(f.ms, 4 * MiB);
  const auto page = pool.alloc_page(1);
  ASSERT_TRUE(page.has_value());
  pool.free_page(page->second, page->first);
  EXPECT_EQ(pool.free_pages(1), 2u);
}

TEST(Hugetlb, FaultOnHugetlbVmaUsesPoolPage) {
  Fixture f;
  HugetlbPool pool(f.ms, 64 * MiB);
  FaultHandler handler(f.ms, &f.thp, &pool);
  Vma v;
  const Addr base = align_down(kVa, kLargePageSize);
  v.range = Range{base, base + 4 * MiB};
  v.prot = kProtRW;
  v.kind = VmaKind::kHugetlb;
  ASSERT_EQ(f.as.vmas().insert(v), Errno::kOk);
  const std::uint64_t pool_before = pool.free_pages(0);
  const FaultResult r = handler.handle(f.as, base + 100, 0);
  EXPECT_EQ(r.err, Errno::kOk);
  EXPECT_EQ(r.kind, FaultKind::kLarge);
  EXPECT_EQ(r.used, PageSize::k2M);
  EXPECT_EQ(pool.free_pages(0), pool_before - 1);
  // HugeTLBfs faults are pricier than THP faults (slower zeroing, extra
  // reservation work) — the Figure 3 vs Figure 2 "Large" relation.
  EXPECT_GT(r.cost, 300'000u);
}

TEST(Hugetlb, PoolMemoryIsLoadInsensitive) {
  // Large-fault cost barely moves under bandwidth pressure (the pool is
  // never contended for capacity; only the zeroing shares the channel).
  Fixture f;
  HugetlbPool pool(f.ms, 64 * MiB);
  FaultHandler handler(f.ms, &f.thp, &pool);
  Vma v;
  const Addr base = align_down(kVa, kLargePageSize);
  v.range = Range{base, base + 32 * MiB};
  v.prot = kProtRW;
  v.kind = VmaKind::kHugetlb;
  ASSERT_EQ(f.as.vmas().insert(v), Errno::kOk);

  RunningStats idle;
  for (std::uint64_t i = 0; i < 8; ++i) {
    idle.add(static_cast<double>(handler.handle(f.as, base + i * 2 * MiB, 0).cost));
  }
  // Competing demand on the zone.
  auto c = f.bw.register_consumer();
  f.bw.set_demand(c, 0, 12.0);
  RunningStats loaded;
  for (std::uint64_t i = 8; i < 16; ++i) {
    loaded.add(static_cast<double>(handler.handle(f.as, base + i * 2 * MiB, 0).cost));
  }
  EXPECT_LT(loaded.mean(), idle.mean() * 8.0); // grows, but no reclaim blowup
  EXPECT_GT(loaded.mean(), idle.mean());       // and it does share the channel
}

// --- first-touch runs (DESIGN.md §9.4) ---------------------------------------
//
// A caller faulting a range in address order hands one FaultRun to every
// handle() call; pages after a region's first 4K install then skip the
// VMA lookup, the page-table walks and the THP attempt. The contract is
// that nothing observable changes. Each case builds two identical worlds
// and faults the same range through the run-carrying loop (the shape of
// Node::touch_range) and through a plain per-page loop of walk, then
// handle(as, va, t0 + accumulated cost), and compares everything.

struct RunWorldSpec {
  bool thp = true;
  bool hugetlb = false;
  std::optional<SmpConfig> smp{};
  bool fragment = false; // no free order >= 1 blocks: THP faults fall back
};

struct RunWorld {
  hw::PhysicalMemory phys{1 * GiB, 2};
  hw::BandwidthModel bw{2, 5.6};
  CostModel costs{};
  MemorySystem ms{phys, bw, Rng(21), costs};
  sim::Engine engine;
  std::unique_ptr<ThpService> thp;
  std::unique_ptr<HugetlbPool> hugetlb;
  std::unique_ptr<SmpDomain> smp;
  std::unique_ptr<FaultHandler> handler;
  AddressSpace as{7};

  explicit RunWorld(const RunWorldSpec& spec) {
    as.set_zone_policy(AddressSpace::ZonePolicy::kInterleave, 0, 2);
    if (spec.thp) {
      thp = std::make_unique<ThpService>(ms, engine, [] { return 1.0; });
    }
    if (spec.hugetlb) {
      hugetlb = std::make_unique<HugetlbPool>(ms, 16 * MiB);
    }
    handler = std::make_unique<FaultHandler>(ms, thp.get(), hugetlb.get());
    if (spec.smp.has_value()) {
      smp = std::make_unique<SmpDomain>(*spec.smp, costs, ms.zone_count());
      handler->attach_smp(smp.get());
    }
    if (spec.fragment) {
      // Take every frame, then free every other one: half the memory is
      // free, none of it in a block THP could use.
      for (ZoneId z = 0; z < ms.zone_count(); ++z) {
        std::vector<Addr> held;
        while (auto a = ms.buddy(z).alloc(0)) {
          held.push_back(a->addr);
        }
        for (std::size_t i = 0; i < held.size(); i += 2) {
          ms.free_pages(z, held[i], 0);
        }
      }
    }
  }

  void add_vma(Addr begin, std::uint64_t len, VmaKind kind, bool thp_eligible,
               Prot prot = kProtRW) {
    Vma v;
    v.range = Range{begin, begin + len};
    v.prot = prot;
    v.kind = kind;
    v.thp_eligible = thp_eligible;
    if (kind == VmaKind::kHugetlb) {
      v.hugetlb_size = PageSize::k2M;
    }
    ASSERT_EQ(as.vmas().insert(v), Errno::kOk);
  }

  /// What Node::maybe_swap does to one 2M region: evict every 4K page.
  void evict_region(Addr va) {
    const Addr base = align_down(va, kLargePageSize);
    for (Addr p = base; p < base + kLargePageSize; p += kSmallPageSize) {
      const auto t = as.page_table().walk(p);
      if (t.has_value() && t->size == PageSize::k4K) {
        ASSERT_EQ(as.page_table().unmap(p, PageSize::k4K), Errno::kOk);
        ms.free_pages(phys.zone_of(t->phys), align_down(t->phys, kSmallPageSize), 0);
        as.mark_swapped(p);
      }
    }
  }
};

/// Called after each fault with (world, fault index, faulted address).
using BetweenFaults = std::function<void(RunWorld&, std::size_t, Addr)>;

/// Fault [range) page by page at t0 + accumulated cost. With a run this
/// is Node::touch_range's loop; without one, the per-page reference.
std::vector<FaultResult> fault_range(RunWorld& w, Range range, Cycles t0, std::int32_t core,
                                     FaultRun* run, const BetweenFaults& between) {
  std::vector<FaultResult> out;
  Cycles cost = 0;
  Addr va = range.begin;
  while (va < range.end) {
    if (run != nullptr && run->covers(va)) {
      if (run->pte_mapped(w.as, va)) {
        va += kSmallPageSize;
        continue;
      }
    } else if (const auto t = w.as.page_table().walk(va); t.has_value()) {
      va = align_down(va, bytes(t->size)) + bytes(t->size);
      continue;
    }
    const FaultResult fr = w.handler->handle(w.as, va, t0 + cost, core, run);
    out.push_back(fr);
    cost += fr.cost;
    if (between) {
      between(w, out.size(), va);
    }
    va = fr.err != Errno::kOk ? va + kSmallPageSize
                              : align_down(va, bytes(fr.used)) + bytes(fr.used);
  }
  return out;
}

void expect_same_world(RunWorld& a, RunWorld& b, const std::vector<FaultResult>& ra,
                       const std::vector<FaultResult>& rb) {
  ASSERT_EQ(ra.size(), rb.size());
  FaultStats sa;
  FaultStats sb;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].err, rb[i].err) << "fault " << i;
    EXPECT_EQ(ra[i].kind, rb[i].kind) << "fault " << i;
    EXPECT_EQ(ra[i].used, rb[i].used) << "fault " << i;
    EXPECT_EQ(ra[i].cost, rb[i].cost) << "fault " << i;
    EXPECT_EQ(ra[i].lock_wait, rb[i].lock_wait) << "fault " << i;
    EXPECT_EQ(ra[i].entered_reclaim, rb[i].entered_reclaim) << "fault " << i;
    sa.record(ra[i].kind, ra[i].cost);
    sb.record(rb[i].kind, rb[i].cost);
  }
  for (std::size_t k = 0; k < kFaultKindCount; ++k) {
    EXPECT_EQ(sa.count[k], sb.count[k]);
    EXPECT_EQ(sa.total_cycles[k], sb.total_cycles[k]);
  }
  const auto leaves = [](const AddressSpace& as) {
    std::vector<std::tuple<Addr, Addr, PageSize, Prot>> v;
    as.page_table().for_each_leaf(
        [&](Addr va, const Translation& t) { v.emplace_back(va, t.phys, t.size, t.prot); });
    return v;
  };
  EXPECT_EQ(leaves(a.as), leaves(b.as));
  EXPECT_EQ(a.as.mapping_mix().bytes_4k, b.as.mapping_mix().bytes_4k);
  EXPECT_EQ(a.as.mapping_mix().bytes_2m, b.as.mapping_mix().bytes_2m);
  EXPECT_EQ(a.as.page_table().table_pages(), b.as.page_table().table_pages());
  EXPECT_EQ(a.as.swapped_set(), b.as.swapped_set());
  for (ZoneId z = 0; z < a.ms.zone_count(); ++z) {
    EXPECT_EQ(a.ms.buddy(z).free_bytes(), b.ms.buddy(z).free_bytes());
    const auto blocks = [](const BuddyAllocator& buddy) {
      std::vector<std::pair<Addr, unsigned>> v;
      buddy.for_each_free_block([&](Addr addr, unsigned order) { v.emplace_back(addr, order); });
      return v;
    };
    EXPECT_EQ(blocks(a.ms.buddy(z)), blocks(b.ms.buddy(z)));
  }
  ASSERT_EQ(a.thp == nullptr, b.thp == nullptr);
  if (a.thp != nullptr) {
    const ThpStats& ta = a.thp->stats();
    const ThpStats& tb = b.thp->stats();
    EXPECT_EQ(ta.fault_huge_success, tb.fault_huge_success);
    EXPECT_EQ(ta.fault_huge_fallback, tb.fault_huge_fallback);
  }
  if (a.hugetlb != nullptr) {
    EXPECT_EQ(a.hugetlb->stats().faults_served, b.hugetlb->stats().faults_served);
  }
  EXPECT_EQ(a.engine.pending_events(), b.engine.pending_events()); // khugepaged wakes
  EXPECT_EQ(a.ms.rng().next_u64(), b.ms.rng().next_u64());
}

/// Build both worlds with `setup`, fault `range` through each loop, and
/// compare. Returns the run-carrying side's results for extra checks.
std::vector<FaultResult> expect_run_matches_per_page(
    const RunWorldSpec& spec, const std::function<void(RunWorld&)>& setup, Range range,
    Cycles t0 = 0, std::int32_t core = -1, const BetweenFaults& between = {}) {
  RunWorld with_run(spec);
  RunWorld per_page(spec);
  setup(with_run);
  setup(per_page);
  FaultRun run;
  const auto ra = fault_range(with_run, range, t0, core, &run, between);
  const auto rb = fault_range(per_page, range, t0, core, nullptr, between);
  expect_same_world(with_run, per_page, ra, rb);
  return ra;
}

std::size_t count_kind(const std::vector<FaultResult>& rs, FaultKind kind, PageSize used) {
  return static_cast<std::size_t>(std::count_if(rs.begin(), rs.end(), [&](const FaultResult& r) {
    return r.err == Errno::kOk && r.kind == kind && r.used == used;
  }));
}

constexpr Addr kRunVa = 0x6000'0000'0000ull; // 2M-aligned

TEST(FaultRun, ThpFallbackRunsMatchPerPageFaults) {
  // THP on, eligible VMA, no order-9 block anywhere: every region falls
  // back page by page, and khugepaged is queued once per region. Some
  // pages are already mapped or were swapped out before the touch.
  RunWorldSpec spec;
  spec.fragment = true;
  const auto rs = expect_run_matches_per_page(
      spec,
      [](RunWorld& w) {
        w.add_vma(kRunVa, 6 * MiB, VmaKind::kAnon, true);
        (void)w.handler->handle(w.as, kRunVa + 2 * MiB + 40 * KiB, 0);
        (void)w.handler->handle(w.as, kRunVa + 2 * MiB + 44 * KiB, 0);
        for (const Addr off : {8 * KiB, 12 * KiB, 2 * MiB + 4 * KiB, 5 * MiB + 400 * KiB}) {
          w.as.mark_swapped(kRunVa + off);
        }
      },
      Range{kRunVa, kRunVa + 6 * MiB});
  EXPECT_EQ(count_kind(rs, FaultKind::kSmall, PageSize::k4K), 3 * 512u - 2);
}

TEST(FaultRun, ThpOffRunsMatchPerPageFaults) {
  RunWorldSpec spec;
  spec.thp = false;
  const auto rs = expect_run_matches_per_page(
      spec,
      [](RunWorld& w) {
        w.add_vma(kRunVa, 4 * MiB, VmaKind::kAnon, false);
        w.as.mark_swapped(kRunVa + 3 * MiB);
      },
      Range{kRunVa + 1 * MiB, kRunVa + 4 * MiB});
  EXPECT_EQ(rs.size(), 768u);
}

TEST(FaultRun, VmaEndingMidRegionAndHugeFaultsMatch) {
  // Pristine memory: aligned, fully covered regions take 2M faults. The
  // unaligned head and the tail that ends 1M into a region fault 4K, and
  // the next, read-only VMA starts in that same region (the run must stop
  // at the VMA end, not the 2M boundary, or its PTEs get the wrong prot).
  RunWorldSpec spec;
  const auto rs = expect_run_matches_per_page(
      spec,
      [](RunWorld& w) {
        w.add_vma(kRunVa + 64 * KiB, 5 * MiB - 64 * KiB, VmaKind::kAnon, true);
        w.add_vma(kRunVa + 5 * MiB, 1 * MiB, VmaKind::kAnon, false, Prot::kRead);
      },
      Range{kRunVa + 64 * KiB, kRunVa + 6 * MiB});
  EXPECT_EQ(count_kind(rs, FaultKind::kLarge, PageSize::k2M), 1u);
  EXPECT_EQ(count_kind(rs, FaultKind::kSmall, PageSize::k4K), 496u + 256u + 256u);
}

TEST(FaultRun, MergeLockHeldAcrossTheRunMatches) {
  // khugepaged holds the PT lock when the range is first touched, and
  // again from inside two runs: the faults that queue behind it wait and
  // count as merge followers, the rest do not.
  RunWorldSpec spec;
  spec.fragment = true;
  const Cycles t0 = 1'000'000;
  const auto rs = expect_run_matches_per_page(
      spec,
      [&](RunWorld& w) {
        w.add_vma(kRunVa, 4 * MiB, VmaKind::kAnon, true);
        w.as.lock_until(t0 + 600'000);
      },
      Range{kRunVa, kRunVa + 4 * MiB}, t0, -1, [&](RunWorld& w, std::size_t n, Addr) {
        if (n == 10 || n == 700) {
          w.as.lock_until(t0 + n * 40'000'000);
        }
      });
  EXPECT_EQ(count_kind(rs, FaultKind::kMergeFollower, PageSize::k4K), 3u);
  EXPECT_GT(count_kind(rs, FaultKind::kSmall, PageSize::k4K), 0u);
}

TEST(FaultRun, EvictingTheRunsRegionReopensItForThp) {
  // Reclaim evicts every 4K page of the region being faulted (what
  // Node::maybe_swap does under direct reclaim). The PT's live count
  // drops to 0, the region is THP-eligible again, and the next fault
  // there installs a 2M page over the emptied table.
  RunWorldSpec spec;
  const auto rs = expect_run_matches_per_page(
      spec,
      [](RunWorld& w) {
        w.add_vma(kRunVa, 4 * MiB, VmaKind::kAnon, true);
        // A stray 4K page makes both regions ineligible at first.
        for (const Addr stray : {kRunVa + 1 * MiB, kRunVa + 3 * MiB}) {
          const auto frame = w.ms.buddy(0).alloc(0);
          ASSERT_TRUE(frame.has_value());
          ASSERT_EQ(w.as.page_table().map(stray, frame->addr, PageSize::k4K, kProtRW), Errno::kOk);
        }
      },
      Range{kRunVa, kRunVa + 4 * MiB}, 0, -1, [](RunWorld& w, std::size_t n, Addr va) {
        if (n == 20 || n == 40) {
          w.evict_region(va);
        }
      });
  EXPECT_EQ(count_kind(rs, FaultKind::kLarge, PageSize::k2M), 2u);
}

TEST(FaultRun, HugetlbVmaNeverOpensARun) {
  RunWorldSpec spec;
  spec.thp = false;
  spec.hugetlb = true;
  const auto rs = expect_run_matches_per_page(
      spec,
      [](RunWorld& w) {
        w.add_vma(kRunVa, 4 * MiB, VmaKind::kHugetlb, false);
        w.add_vma(kRunVa + 4 * MiB, 1 * MiB, VmaKind::kAnon, false);
      },
      Range{kRunVa, kRunVa + 5 * MiB});
  EXPECT_EQ(count_kind(rs, FaultKind::kLarge, PageSize::k2M), 2u);
  EXPECT_EQ(count_kind(rs, FaultKind::kSmall, PageSize::k4K), 256u);
}

TEST(FaultRun, SmpDomainRunsMatchPerPageFaults) {
  // With an SmpDomain attached the per-page body executes pcp refills,
  // zone locks and PT-shard locks on the virtual clock; a run must issue
  // exactly the same acquisitions at exactly the same stamps.
  for (const bool sharded : {true, false}) {
    RunWorldSpec spec;
    spec.fragment = true;
    SmpConfig smp;
    smp.cores = 4;
    smp.sharded_pt_locks = sharded;
    spec.smp = smp;
    const auto rs = expect_run_matches_per_page(
        spec,
        [](RunWorld& w) {
          w.add_vma(kRunVa, 4 * MiB, VmaKind::kAnon, true);
          // Another core holds this mm's PT lock / shard for a while.
          (void)w.smp->pt_lock(w.as.pid(), kRunVa, 0, 400'000, 2);
        },
        Range{kRunVa, kRunVa + 4 * MiB}, 0, /*core=*/1);
    EXPECT_EQ(rs.size(), 1024u);
    EXPECT_TRUE(
        std::any_of(rs.begin(), rs.end(), [](const FaultResult& r) { return r.lock_wait > 0; }));
  }
}

} // namespace
} // namespace hpmmap::mm
