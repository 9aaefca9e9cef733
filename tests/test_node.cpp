// Integration tests: the Node's syscall dispatch, fault accounting,
// memory conservation, mlock, swapping, process lifecycle, and first-touch
// runs against per-page touches.
#include <gtest/gtest.h>

#include <functional>
#include <tuple>
#include <vector>

#include "common/units.hpp"
#include "os/node.hpp"
#include "sim/engine.hpp"

namespace hpmmap::os {
namespace {

NodeConfig small_config() {
  NodeConfig cfg;
  cfg.machine = hw::dell_r415();
  cfg.machine.ram_bytes = 4 * GiB; // keep tests fast
  cfg.seed = 5;
  cfg.aged_boot = false; // deterministic clean-slate tests
  return cfg;
}

Process& spawn_app(Node& node, MmPolicy policy) {
  return node.spawn("app", policy, 0, 1.0, mm::AddressSpace::ZonePolicy::kSingle, 0);
}

TEST(Node, SpawnCreatesCanonicalLayout) {
  sim::Engine engine;
  Node node(engine, small_config());
  Process& p = spawn_app(node, MmPolicy::kLinuxThp);
  const mm::VmaTree& vmas = p.address_space().vmas();
  EXPECT_NE(vmas.find(mm::AddressLayout::kTextBase), nullptr);
  EXPECT_NE(vmas.find(mm::AddressLayout::kStackTop - 4096), nullptr);
  EXPECT_GT(p.address_space().heap_base(), mm::AddressLayout::kTextBase);
}

TEST(Node, LinuxMmapCreatesVmaWithoutBacking) {
  sim::Engine engine;
  Node node(engine, small_config());
  Process& p = spawn_app(node, MmPolicy::kLinuxThp);
  const auto out = node.sys_mmap(p, 8 * MiB, kProtRW, Node::Segment::kHeapData);
  ASSERT_EQ(out.err, Errno::kOk);
  EXPECT_NE(p.address_space().vmas().find(out.addr), nullptr);
  // Demand paging: nothing mapped until touched (§II-A).
  EXPECT_FALSE(p.address_space().page_table().walk(out.addr).has_value());
}

TEST(Node, TouchRangeFaultsEveryPageOnce) {
  sim::Engine engine;
  Node node(engine, small_config());
  Process& p = spawn_app(node, MmPolicy::kLinuxPlain);
  const auto out = node.sys_mmap(p, 1 * MiB, kProtRW, Node::Segment::kHeapData);
  ASSERT_EQ(out.err, Errno::kOk);
  const Cycles c1 = node.touch_range(p, Range{out.addr, out.addr + 1 * MiB});
  EXPECT_EQ(p.fault_stats().count[0], 256u); // 1 MiB / 4K, THP off
  EXPECT_GT(c1, 0u);
  // Second touch: all mapped, no new faults.
  (void)node.touch_range(p, Range{out.addr, out.addr + 1 * MiB});
  EXPECT_EQ(p.fault_stats().count[0], 256u);
}

TEST(Node, ThpPolicyUsesLargePages) {
  sim::Engine engine;
  Node node(engine, small_config());
  Process& p = spawn_app(node, MmPolicy::kLinuxThp);
  const auto out = node.sys_mmap(p, 16 * MiB, kProtRW, Node::Segment::kHeapData);
  ASSERT_EQ(out.err, Errno::kOk);
  (void)node.touch_range(p, Range{out.addr, out.addr + 16 * MiB});
  const auto mix = p.address_space().mapping_mix();
  EXPECT_GT(mix.bytes_2m, 8 * MiB); // mostly large on a pristine node
}

TEST(Node, PlainPolicyNeverGetsLargePages) {
  sim::Engine engine;
  Node node(engine, small_config());
  Process& p = spawn_app(node, MmPolicy::kLinuxPlain);
  const auto out = node.sys_mmap(p, 16 * MiB, kProtRW, Node::Segment::kHeapData);
  (void)node.touch_range(p, Range{out.addr, out.addr + 16 * MiB});
  EXPECT_EQ(p.address_space().mapping_mix().bytes_2m, 0u);
}

TEST(Node, MunmapReturnsFramesToBuddy) {
  sim::Engine engine;
  Node node(engine, small_config());
  Process& p = spawn_app(node, MmPolicy::kLinuxThp);
  const std::uint64_t free_before = node.memory().free_bytes(0) + node.memory().free_bytes(1);
  const auto out = node.sys_mmap(p, 8 * MiB, kProtRW, Node::Segment::kHeapData);
  (void)node.touch_range(p, Range{out.addr, out.addr + 8 * MiB});
  EXPECT_LT(node.memory().free_bytes(0) + node.memory().free_bytes(1), free_before);
  (void)node.sys_munmap(p, out.addr, 8 * MiB);
  EXPECT_EQ(node.memory().free_bytes(0) + node.memory().free_bytes(1), free_before);
  EXPECT_TRUE(node.memory().buddy(0).check_consistency());
}

TEST(Node, BrkGrowsHeapDemandPaged) {
  sim::Engine engine;
  Node node(engine, small_config());
  Process& p = spawn_app(node, MmPolicy::kLinuxThp);
  const auto base = node.sys_brk(p, 0);
  const auto grown = node.sys_brk(p, base.addr + 4 * MiB);
  ASSERT_EQ(grown.err, Errno::kOk);
  EXPECT_NE(p.address_space().vmas().find(base.addr), nullptr);
  EXPECT_FALSE(p.address_space().page_table().walk(base.addr).has_value());
  (void)node.touch_range(p, Range{base.addr, base.addr + 4 * MiB});
  EXPECT_GT(p.address_space().rss_bytes(), 0u);
}

TEST(Node, HpmmapPolicyRoutesThroughModule) {
  sim::Engine engine;
  NodeConfig cfg = small_config();
  core::ModuleConfig mod;
  mod.offline_bytes_per_zone = 512 * MiB;
  cfg.hpmmap = mod;
  Node node(engine, cfg);
  Process& p = spawn_app(node, MmPolicy::kHpmmap);
  const auto out = node.sys_mmap(p, 8 * MiB, kProtRW, Node::Segment::kHeapData);
  ASSERT_EQ(out.err, Errno::kOk);
  EXPECT_TRUE(core::HpmmapModule::in_window(out.addr));
  // Immediately backed: zero faults on touch.
  (void)node.touch_range(p, Range{out.addr, out.addr + 8 * MiB});
  EXPECT_EQ(p.fault_stats().count[0], 0u);
  EXPECT_EQ(p.fault_stats().count[1], 0u);
}

TEST(Node, HpmmapStackStaysWithLinux) {
  sim::Engine engine;
  NodeConfig cfg = small_config();
  core::ModuleConfig mod;
  mod.offline_bytes_per_zone = 512 * MiB;
  cfg.hpmmap = mod;
  Node node(engine, cfg);
  Process& p = spawn_app(node, MmPolicy::kHpmmap);
  const Addr stack_page = mm::AddressLayout::kStackTop - 8 * KiB;
  (void)node.touch_range(p, Range{stack_page, stack_page + 8 * KiB});
  // Stack faults went through Linux (HPMMAP interposes only the
  // address-space syscalls; the stack was created by exec).
  EXPECT_EQ(p.fault_stats().count[0], 2u);
}

TEST(Node, HugetlbfsPolicyBacksDataWithPool) {
  sim::Engine engine;
  NodeConfig cfg = small_config();
  cfg.thp_enabled = false;
  cfg.hugetlb_pool_per_zone = 512 * MiB;
  cfg.hugetlbfs_small_spill = 0.0; // deterministic for this test
  Node node(engine, cfg);
  Process& p = spawn_app(node, MmPolicy::kHugetlbfs);
  const auto out = node.sys_mmap(p, 8 * MiB, kProtRW, Node::Segment::kHeapData);
  ASSERT_EQ(out.err, Errno::kOk);
  const mm::Vma* vma = p.address_space().vmas().find(out.addr);
  ASSERT_NE(vma, nullptr);
  EXPECT_EQ(vma->kind, mm::VmaKind::kHugetlb);
  const std::uint64_t pool_before = node.hugetlb()->free_pages(0);
  (void)node.touch_range(p, Range{out.addr, out.addr + 8 * MiB});
  EXPECT_EQ(node.hugetlb()->free_pages(0), pool_before - 4);
  EXPECT_EQ(p.fault_stats().count[1], 4u); // 4 large faults
}

TEST(Node, HugetlbfsStackNeverPoolBacked) {
  sim::Engine engine;
  NodeConfig cfg = small_config();
  cfg.thp_enabled = false;
  cfg.hugetlb_pool_per_zone = 512 * MiB;
  Node node(engine, cfg);
  Process& p = spawn_app(node, MmPolicy::kHugetlbfs);
  const auto out = node.sys_mmap(p, 8 * MiB, kProtRW, Node::Segment::kStack);
  ASSERT_EQ(out.err, Errno::kOk);
  EXPECT_NE(p.address_space().vmas().find(out.addr)->kind, mm::VmaKind::kHugetlb);
}

TEST(Node, MprotectSplitsVmaAndDefeatsThp) {
  sim::Engine engine;
  Node node(engine, small_config());
  Process& p = spawn_app(node, MmPolicy::kLinuxThp);
  const auto out = node.sys_mmap(p, 8 * MiB, kProtRW, Node::Segment::kHeapData);
  // Change permissions on an interior 4K page: the VMA splits into
  // three, and the aligned 2M region around the split can no longer be
  // huge-mapped (§II-A permission conflicts).
  const Addr mid = out.addr + 4 * MiB + 4 * KiB;
  const auto prot = node.sys_mprotect(p, mid, 4 * KiB, Prot::kRead);
  ASSERT_EQ(prot.err, Errno::kOk);
  (void)node.touch_range(p, Range{out.addr, out.addr + 8 * MiB});
  const auto t = p.address_space().page_table().walk(align_down(mid, kLargePageSize));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->size, PageSize::k4K);
}

TEST(Node, MlockPopulatesSplitsAndPins) {
  sim::Engine engine;
  Node node(engine, small_config());
  Process& p = spawn_app(node, MmPolicy::kLinuxThp);
  const auto out = node.sys_mmap(p, 4 * MiB, kProtRW, Node::Segment::kHeapData);
  (void)node.touch_range(p, Range{out.addr, out.addr + 4 * MiB});
  ASSERT_GT(p.address_space().mapping_mix().bytes_2m, 0u);
  const auto lock = node.sys_mlock(p, out.addr, 4 * MiB);
  ASSERT_EQ(lock.err, Errno::kOk);
  // §II-B: pinning splits every large page.
  EXPECT_EQ(p.address_space().mapping_mix().bytes_2m, 0u);
  const mm::Vma* vma = p.address_space().vmas().find(out.addr);
  ASSERT_NE(vma, nullptr);
  EXPECT_TRUE(vma->locked);
}

TEST(Node, ExitProcessReleasesEverything) {
  sim::Engine engine;
  Node node(engine, small_config());
  const std::uint64_t free_before = node.memory().free_bytes(0) + node.memory().free_bytes(1);
  Process& p = spawn_app(node, MmPolicy::kLinuxThp);
  const auto out = node.sys_mmap(p, 16 * MiB, kProtRW, Node::Segment::kHeapData);
  (void)node.touch_range(p, Range{out.addr, out.addr + 16 * MiB});
  node.exit_process(p);
  EXPECT_FALSE(p.alive());
  EXPECT_EQ(node.memory().free_bytes(0) + node.memory().free_bytes(1), free_before);
}

TEST(Node, HpmmapExitUnregistersFromModule) {
  sim::Engine engine;
  NodeConfig cfg = small_config();
  core::ModuleConfig mod;
  mod.offline_bytes_per_zone = 512 * MiB;
  cfg.hpmmap = mod;
  Node node(engine, cfg);
  Process& p = spawn_app(node, MmPolicy::kHpmmap);
  (void)node.sys_mmap(p, 32 * MiB, kProtRW, Node::Segment::kHeapData);
  node.exit_process(p);
  EXPECT_FALSE(node.hpmmap_module()->handles(p.pid()));
  EXPECT_TRUE(node.hpmmap_module()->allocator().all_free());
}

TEST(Node, KernelAllocFreeRoundTrip) {
  sim::Engine engine;
  Node node(engine, small_config());
  const std::uint64_t free_before = node.memory().free_bytes(0);
  const auto addr = node.kernel_alloc(0, 4);
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(node.memory().free_bytes(0), free_before - 64 * KiB);
  node.kernel_free(0, *addr, 4);
  EXPECT_EQ(node.memory().free_bytes(0), free_before);
}

TEST(Node, ComputeBurstDilatesUnderOvercommit) {
  sim::Engine engine;
  Node node(engine, small_config());
  Process& p = spawn_app(node, MmPolicy::kLinuxThp);
  const Cycles idle = node.compute_burst(p, 10'000'000, 0, 0.95);
  // Pile unpinned demand onto every core.
  std::vector<Scheduler::ThreadId> jobs;
  for (int i = 0; i < 40; ++i) {
    jobs.push_back(node.scheduler().add_thread(-1, 1.0));
  }
  const Cycles loaded = node.compute_burst(p, 10'000'000, 0, 0.95);
  EXPECT_GT(loaded, idle * 2);
  for (auto id : jobs) {
    node.scheduler().remove_thread(id);
  }
}

TEST(Node, ComputeBurstChargesTranslationCosts) {
  sim::Engine engine;
  Node node(engine, small_config());
  // Same working-set size, different mapping mixes.
  Process& small_proc = spawn_app(node, MmPolicy::kLinuxPlain);
  Process& large_proc = node.spawn("app2", MmPolicy::kLinuxThp, 1, 1.0,
                                   mm::AddressSpace::ZonePolicy::kSingle, 0);
  const auto a = node.sys_mmap(small_proc, 256 * MiB, kProtRW, Node::Segment::kHeapData);
  const auto b = node.sys_mmap(large_proc, 256 * MiB, kProtRW, Node::Segment::kHeapData);
  (void)node.touch_range(small_proc, Range{a.addr, a.addr + 256 * MiB});
  (void)node.touch_range(large_proc, Range{b.addr, b.addr + 256 * MiB});
  const Cycles c_small = node.compute_burst(small_proc, 10'000'000, 3'000'000, 0.95);
  const Cycles c_large = node.compute_burst(large_proc, 10'000'000, 3'000'000, 0.95);
  EXPECT_GT(c_small, c_large); // 4K translation costs more (§II)
}

TEST(Node, SwapNeverTouchesOfflinedFrames) {
  // HPMMAP memory is invisible to reclaim: even under brutal pressure,
  // offlined frames are never evicted (§III-A isolation).
  sim::Engine engine;
  NodeConfig cfg = small_config();
  core::ModuleConfig mod;
  mod.offline_bytes_per_zone = 1 * GiB; // leave Linux 1 GiB per zone
  cfg.hpmmap = mod;
  Node node(engine, cfg);
  Process& hpc = spawn_app(node, MmPolicy::kHpmmap);
  const auto region = node.sys_mmap(hpc, 256 * MiB, kProtRW, Node::Segment::kHeapData);
  ASSERT_EQ(region.err, Errno::kOk);

  // Linux-side process creates pressure: fill the rest with anon pages.
  Process& hog = node.spawn("hog", MmPolicy::kLinuxPlain, 1, 1.0,
                            mm::AddressSpace::ZonePolicy::kSingle, 0);
  const auto hog_mem = node.sys_mmap(hog, 800 * MiB, kProtRW, Node::Segment::kHeapData);
  (void)node.touch_range(hog, Range{hog_mem.addr, hog_mem.addr + 800 * MiB});

  // Whatever swapping occurred, HPMMAP mappings are intact.
  for (Addr va = region.addr; va < region.addr + 256 * MiB; va += kLargePageSize) {
    EXPECT_TRUE(hpc.address_space().page_table().walk(va).has_value());
  }
  EXPECT_EQ(hpc.address_space().swapped_pages(), 0u);
}

TEST(Node, AgedBootFragmentsAndFillsCache) {
  sim::Engine engine;
  NodeConfig cfg = small_config();
  cfg.aged_boot = true;
  Node node(engine, cfg);
  EXPECT_GT(node.memory().cache(0).cached_bytes(), 100 * MiB);
  EXPECT_GT(node.memory().buddy(0).fragmentation(), 0.01);
  // Slab stays allocated: free + cache < online.
  EXPECT_LT(node.memory().free_bytes(0) + node.memory().cache(0).cached_bytes(),
            node.memory().buddy(0).total_bytes());
}

// --- first-touch runs (DESIGN.md §9.4) ---------------------------------------
//
// touch_range() carries a FaultRun across the pages of each 2 MiB region;
// a one-page touch_range() call never continues a run, so a loop of them
// is the per-page fault path. Two identical nodes fault the same range
// each way and must end up identical. (Merge-lock and SMP stamps depend
// on the accumulated cost within one call; test_fault_paths.cpp covers
// those against a per-page handle() loop.)

struct TouchWorld {
  sim::Engine engine;
  Node node;
  Process* proc = nullptr;
  explicit TouchWorld(const NodeConfig& cfg) : node(engine, cfg) {}
};

using TouchSetup = std::function<Range(TouchWorld&)>;

void expect_same_node(TouchWorld& a, TouchWorld& b) {
  const mm::FaultStats& fa = a.proc->fault_stats();
  const mm::FaultStats& fb = b.proc->fault_stats();
  for (std::size_t k = 0; k < mm::kFaultKindCount; ++k) {
    EXPECT_EQ(fa.count[k], fb.count[k]) << "kind " << k;
    EXPECT_EQ(fa.total_cycles[k], fb.total_cycles[k]) << "kind " << k;
  }
  const auto leaves = [](const Process& p) {
    std::vector<std::tuple<Addr, Addr, PageSize, Prot>> v;
    p.address_space().page_table().for_each_leaf(
        [&](Addr va, const mm::Translation& t) { v.emplace_back(va, t.phys, t.size, t.prot); });
    return v;
  };
  EXPECT_EQ(leaves(*a.proc), leaves(*b.proc));
  EXPECT_EQ(a.proc->address_space().swapped_set(), b.proc->address_space().swapped_set());
  EXPECT_EQ(a.node.swapped_out_total(), b.node.swapped_out_total());
  for (ZoneId z = 0; z < a.node.memory().zone_count(); ++z) {
    EXPECT_EQ(a.node.memory().buddy(z).free_bytes(), b.node.memory().buddy(z).free_bytes());
    const auto blocks = [](const mm::BuddyAllocator& buddy) {
      std::vector<std::pair<Addr, unsigned>> v;
      buddy.for_each_free_block([&](Addr addr, unsigned order) { v.emplace_back(addr, order); });
      return v;
    };
    EXPECT_EQ(blocks(a.node.memory().buddy(z)), blocks(b.node.memory().buddy(z)));
  }
  ASSERT_EQ(a.node.thp() == nullptr, b.node.thp() == nullptr);
  if (a.node.thp() != nullptr) {
    const mm::ThpStats& ta = a.node.thp()->stats();
    const mm::ThpStats& tb = b.node.thp()->stats();
    EXPECT_EQ(ta.fault_huge_success, tb.fault_huge_success);
    EXPECT_EQ(ta.fault_huge_fallback, tb.fault_huge_fallback);
  }
  if (a.node.hugetlb() != nullptr) {
    EXPECT_EQ(a.node.hugetlb()->stats().faults_served, b.node.hugetlb()->stats().faults_served);
  }
  EXPECT_EQ(a.engine.pending_events(), b.engine.pending_events());
  EXPECT_EQ(a.node.memory().rng().next_u64(), b.node.memory().rng().next_u64());
}

/// Fault the range `setup` returns whole in one node and page by page in
/// a twin; returns the whole-range node's total fault count.
std::uint64_t expect_touch_matches_per_page(const NodeConfig& cfg, const TouchSetup& setup,
                                            const std::function<void(TouchWorld&)>& check = {}) {
  TouchWorld whole(cfg);
  TouchWorld paged(cfg);
  const Range r = setup(whole);
  EXPECT_EQ(setup(paged), r);
  const Cycles cost = whole.node.touch_range(*whole.proc, r);
  Cycles paged_cost = 0;
  for (Addr va = r.begin; va < r.end; va += kSmallPageSize) {
    paged_cost += paged.node.touch_range(*paged.proc, Range{va, va + kSmallPageSize});
  }
  EXPECT_EQ(cost, paged_cost);
  expect_same_node(whole, paged);
  if (check) {
    check(whole);
  }
  std::uint64_t faults = 0;
  for (const std::uint64_t n : whole.proc->fault_stats().count) {
    faults += n;
  }
  return faults;
}

TEST(NodeFaultRun, ThpOnMatchesPerPageTouches) {
  // Zone 0 keeps a single free order-9 block: one region faults huge,
  // the rest fall back page by page and queue khugepaged. A few pages
  // are pre-touched and a few marked swapped.
  const auto check = [](TouchWorld& w) {
    EXPECT_EQ(w.proc->fault_stats().count[static_cast<std::size_t>(mm::FaultKind::kLarge)], 1u);
    EXPECT_GT(w.proc->fault_stats().count[static_cast<std::size_t>(mm::FaultKind::kSmall)],
              4 * 512u);
  };
  (void)expect_touch_matches_per_page(small_config(), [](TouchWorld& w) {
    w.proc = &spawn_app(w.node, MmPolicy::kLinuxThp);
    const auto out = w.node.sys_mmap(*w.proc, 12 * MiB, kProtRW, Node::Segment::kHeapData);
    EXPECT_EQ(out.err, Errno::kOk);
    // Take every order-9 block and give back half of each as order 8:
    // zone 0 stays well above its watermarks with no huge block left,
    // except the one returned whole.
    mm::BuddyAllocator& buddy = w.node.memory().buddy(0);
    std::vector<Addr> huge;
    while (buddy.largest_free_order().value_or(0) >= mm::kLargePageOrder) {
      huge.push_back(buddy.alloc(mm::kLargePageOrder)->addr);
    }
    for (const Addr a : huge) {
      if (a != huge.back()) {
        w.node.memory().free_pages(0, a, 8);
      }
    }
    (void)w.node.touch_range(*w.proc, Range{out.addr + 5 * MiB, out.addr + 5 * MiB + 8 * KiB});
    w.node.memory().free_pages(0, huge.back(), mm::kLargePageOrder);
    w.proc->address_space().mark_swapped(out.addr + 7 * MiB + 12 * KiB);
    w.proc->address_space().mark_swapped(out.addr + 7 * MiB + 16 * KiB);
    return Range{out.addr, out.addr + 12 * MiB};
  }, check);
}

TEST(NodeFaultRun, ThpOffMatchesPerPageTouches) {
  NodeConfig cfg = small_config();
  cfg.thp_enabled = false;
  const std::uint64_t faults = expect_touch_matches_per_page(cfg, [](TouchWorld& w) {
    w.proc = &spawn_app(w.node, MmPolicy::kLinuxPlain);
    // 3 MiB + 12 KiB: the VMA ends partway into a 2M region.
    const auto out =
        w.node.sys_mmap(*w.proc, 3 * MiB + 12 * KiB, kProtRW, Node::Segment::kHeapData);
    EXPECT_EQ(out.err, Errno::kOk);
    w.proc->address_space().mark_swapped(out.addr + 1 * MiB);
    return Range{out.addr, out.addr + 3 * MiB + 12 * KiB};
  });
  EXPECT_EQ(faults, 771u);
}

TEST(NodeFaultRun, VmaEndingMidRegionMatchesPerPageTouches) {
  // Two adjacent mappings share a 2M region: the run over the first must
  // stop at its VMA end, and the second opens its own.
  const std::uint64_t faults = expect_touch_matches_per_page(small_config(), [](TouchWorld& w) {
    w.proc = &spawn_app(w.node, MmPolicy::kLinuxThp);
    const auto hi = w.node.sys_mmap(*w.proc, 5 * MiB, kProtRW, Node::Segment::kHeapData);
    // Read-only, and never THP-eligible: a run that overran its VMA end
    // would install the wrong PTE protections.
    const auto lo =
        w.node.sys_mmap(*w.proc, 1 * MiB + 64 * KiB, Prot::kRead, Node::Segment::kStack);
    EXPECT_EQ(lo.addr + 1 * MiB + 64 * KiB, hi.addr);
    return Range{lo.addr, hi.addr + 5 * MiB};
  });
  EXPECT_GT(faults, 272u);
}

TEST(NodeFaultRun, HugetlbVmaMatchesPerPageTouches) {
  NodeConfig cfg = small_config();
  cfg.thp_enabled = false;
  cfg.hugetlb_pool_per_zone = 64 * MiB;
  cfg.hugetlbfs_small_spill = 0.0;
  const std::uint64_t faults = expect_touch_matches_per_page(cfg, [](TouchWorld& w) {
    w.proc = &spawn_app(w.node, MmPolicy::kHugetlbfs);
    const auto pool = w.node.sys_mmap(*w.proc, 8 * MiB, kProtRW, Node::Segment::kHeapData);
    const auto anon = w.node.sys_mmap(*w.proc, 2 * MiB, kProtRW, Node::Segment::kStack);
    EXPECT_EQ(anon.addr + 2 * MiB, pool.addr);
    return Range{anon.addr, pool.addr + 8 * MiB};
  });
  EXPECT_EQ(faults, 512u + 4u);
}

TEST(NodeFaultRun, DirectReclaimEvictingTheCurrentRegionMatches) {
  // Zone 0 sits two pages above its low watermark with no page cache, no
  // huge block but one, and a stray 4K page in the range's first region.
  // Its fourth fault direct-reclaims; maybe_swap evicts the oldest anon
  // pages, which are every page of the region the run is working
  // through. The region is then THP-eligible again and takes the huge
  // block on the next fault.
  NodeConfig cfg = small_config();
  cfg.machine.ram_bytes = 512 * MiB;
  Range range;
  const auto setup = [&](TouchWorld& w) {
    w.proc = &spawn_app(w.node, MmPolicy::kLinuxThp);
    const auto out = w.node.sys_mmap(*w.proc, 8 * MiB, kProtRW, Node::Segment::kHeapData);
    EXPECT_EQ(out.err, Errno::kOk);
    range = Range{out.addr, out.addr + 8 * MiB};
    // Every order-9 block, half of each handed back as order 8 so none
    // can re-form; the last stays whole, held until the end.
    mm::BuddyAllocator& buddy = w.node.memory().buddy(0);
    std::vector<Addr> huge;
    while (buddy.largest_free_order().value_or(0) >= mm::kLargePageOrder) {
      huge.push_back(buddy.alloc(mm::kLargePageOrder)->addr);
    }
    for (const Addr a : huge) {
      if (a != huge.back()) {
        w.node.memory().free_pages(0, a, 8);
      }
    }
    const Addr stray = range.begin + 1 * MiB;
    (void)w.node.touch_range(*w.proc, Range{stray, stray + kSmallPageSize});
    const auto low = static_cast<std::uint64_t>(w.node.memory().costs().watermark_low *
                                                static_cast<double>(buddy.total_bytes()));
    const std::uint64_t target = low + 2 * kSmallPageSize - kLargePageSize;
    for (unsigned order = mm::kLargePageOrder; order-- > 0;) {
      while (buddy.free_bytes() >= target + mm::BuddyAllocator::order_bytes(order) &&
             buddy.alloc(order).has_value()) {
      }
    }
    w.node.memory().free_pages(0, huge.back(), mm::kLargePageOrder);
    return range;
  };
  (void)expect_touch_matches_per_page(cfg, setup, [&](TouchWorld& w) {
    EXPECT_GT(w.node.swapped_out_total(), 0u);
    EXPECT_TRUE(w.proc->address_space().is_swapped(range.begin));
    const auto first = w.proc->address_space().page_table().walk(range.begin);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->size, PageSize::k2M);
  });
}

} // namespace
} // namespace hpmmap::os
