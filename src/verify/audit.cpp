#include "verify/audit.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "core/module.hpp"
#include "hw/phys_mem.hpp"
#include "linux_mm/address_space.hpp"
#include "linux_mm/buddy_allocator.hpp"
#include "linux_mm/hugetlbfs.hpp"
#include "linux_mm/memory_system.hpp"
#include "linux_mm/smp.hpp"
#include "linux_mm/vma.hpp"
#include "os/node.hpp"
#include "os/process.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace hpmmap::verify {
namespace {

std::string hex(Addr a) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "0x%llx", static_cast<unsigned long long>(a));
  return std::string{buf};
}

std::string num(std::uint64_t v) { return std::to_string(v); }

} // namespace

void AuditReport::add(std::string check, std::string detail) {
  if (violations.size() >= kMaxViolations) {
    ++dropped;
    return;
  }
  violations.push_back(Violation{std::move(check), std::move(detail)});
}

std::string AuditReport::summary() const {
  std::string out = "audit: " + num(checks) + " checks, " + num(violation_count()) +
                    " violations";
  for (const Violation& v : violations) {
    out += "\n  [" + v.check + "] " + v.detail;
  }
  if (dropped > 0) {
    out += "\n  (+" + num(dropped) + " more)";
  }
  return out;
}

void audit_buddy(const mm::BuddyAllocator& buddy, std::string_view label, AuditReport& report) {
  const std::string who{label};
  const Range range = buddy.range();
  const hw::MemMap& map = buddy.mem_map();
  struct Block {
    Addr addr;
    unsigned order;
  };
  std::vector<Block> blocks;
  std::uint64_t sum = 0;
  buddy.for_each_free_block([&](Addr a, unsigned o) {
    const std::uint64_t size = mm::BuddyAllocator::order_bytes(o);
    ++report.checks;
    if (!range.contains(a) || a + size > range.end) {
      report.add("buddy.out_of_range",
                 who + ": free block " + hex(a) + " order " + num(o) + " outside " +
                     hex(range.begin) + "-" + hex(range.end));
    }
    ++report.checks;
    if (!is_aligned(a - range.begin, size)) {
      report.add("buddy.misaligned",
                 who + ": free block " + hex(a) + " misaligned for order " + num(o));
    }
    // The mem_map must mark this frame as the head of a free block of
    // exactly this order (freelist -> mem_map direction).
    if (range.contains(a)) {
      const std::uint32_t frame = map.index_of(a);
      ++report.checks;
      if (map.state(frame) != hw::FrameState::kBuddyFree || map.order(frame) != o) {
        report.add("buddy.memmap_state",
                   who + ": free block " + hex(a) + " order " + num(o) +
                       " has mem_map state " +
                       num(static_cast<std::uint64_t>(map.state(frame))) + " order " +
                       num(map.order(frame)));
      }
    }
    // Uncoalesced pair: this block's buddy is free at the same order, so
    // free() should have merged them. Report each pair once (a < buddy).
    const Addr buddy_addr = range.begin + ((a - range.begin) ^ size);
    ++report.checks;
    if (o < buddy.max_order() && a < buddy_addr && buddy_addr + size <= range.end &&
        buddy.free_block_containing(buddy_addr) ==
            std::make_optional(std::make_pair(buddy_addr, o))) {
      report.add("buddy.uncoalesced",
                 who + ": blocks " + hex(a) + " and " + hex(buddy_addr) + " at order " +
                     num(o) + " are mergeable buddies");
    }
    blocks.push_back(Block{a, o});
    sum += size;
  });
  ++report.checks;
  if (sum != buddy.free_bytes()) {
    report.add("buddy.accounting",
               who + ": free list sum " + num(sum) + " != accounted free_bytes " +
                   num(buddy.free_bytes()));
  }
  std::sort(blocks.begin(), blocks.end(),
            [](const Block& x, const Block& y) { return x.addr < y.addr; });
  for (std::size_t i = 1; i < blocks.size(); ++i) {
    const Block& prev = blocks[i - 1];
    const Block& cur = blocks[i];
    ++report.checks;
    if (prev.addr + mm::BuddyAllocator::order_bytes(prev.order) > cur.addr) {
      report.add("buddy.overlap",
                 who + ": free block " + hex(prev.addr) + " order " + num(prev.order) +
                     " overlaps " + hex(cur.addr) + " order " + num(cur.order));
    }
  }
  // mem_map -> freelist direction: every kBuddyFree head must be an
  // actual freelist entry (an orphan means a stale or forged mem_map
  // annotation).
  map.for_each_head([&](Addr a, hw::FrameState st, unsigned o) {
    if (st != hw::FrameState::kBuddyFree) {
      return;
    }
    ++report.checks;
    if (!buddy.is_free_block(a, o)) {
      report.add("buddy.memmap_orphan",
                 who + ": mem_map marks " + hex(a) + " order " + num(o) +
                     " buddy-free but the freelist bitmap disagrees");
    }
  });
}

void audit_page_cache(const mm::BuddyAllocator& buddy, const mm::PageCache& cache,
                      std::string_view label, AuditReport& report) {
  const std::string who{label};
  const hw::MemMap& map = buddy.mem_map();
  std::uint64_t walked = 0;
  std::uint64_t bytes = 0;
  cache.for_each_lru([&](Addr a, unsigned o, bool dirty) {
    (void)dirty;
    ++walked;
    bytes += mm::BuddyAllocator::order_bytes(o);
    const hw::FrameState st = map.state(map.index_of(a));
    ++report.checks;
    if (st != hw::FrameState::kCacheClean && st != hw::FrameState::kCacheDirty) {
      report.add("cache.memmap_state",
                 who + ": LRU block " + hex(a) + " order " + num(o) +
                     " has non-cache mem_map state " +
                     num(static_cast<std::uint64_t>(st)));
    }
  });
  ++report.checks;
  if (walked != cache.block_count()) {
    report.add("cache.lru_broken",
               who + ": LRU walk reaches " + num(walked) + " blocks, cache counts " +
                   num(cache.block_count()));
  }
  ++report.checks;
  if (bytes != cache.cached_bytes()) {
    report.add("cache.accounting",
               who + ": LRU byte total " + num(bytes) + " != accounted cached_bytes " +
                   num(cache.cached_bytes()));
  }
  // mem_map -> LRU direction: the meta sweep must find exactly the
  // cache's blocks (an extra cache-state head is unreachable by
  // reclaim; a missing one hides a block from compaction).
  std::uint64_t heads = 0;
  cache.for_each_block([&](Addr a, unsigned o, bool dirty) {
    (void)a;
    (void)o;
    (void)dirty;
    ++heads;
  });
  ++report.checks;
  if (heads != cache.block_count()) {
    report.add("cache.memmap_orphan",
               who + ": mem_map holds " + num(heads) + " cache heads, cache counts " +
                   num(cache.block_count()));
  }
}

AuditReport MmAuditor::run() {
  AuditReport report;
  audit_buddies(report);
  audit_caches(report);
  audit_vmas(report);
  audit_page_tables(report);
  audit_frames(report);
  audit_hugetlb(report);
  audit_pcp(report);
  ++trace::metrics().counter("audit.runs");
  trace::metrics().counter("audit.checks") += report.checks;
  trace::metrics().counter("audit.violations") += report.violation_count();
  if (trace::on(trace::Category::kVerify)) {
    trace::instant(trace::Category::kVerify, "audit.run", 0, -1,
                   {trace::Arg::u64("checks", report.checks),
                    trace::Arg::u64("violations", report.violation_count())});
  }
  return report;
}

void MmAuditor::audit_buddies(AuditReport& report) {
  mm::MemorySystem& memory = node_.memory();
  for (ZoneId z = 0; z < memory.zone_count(); ++z) {
    audit_buddy(memory.buddy(z), "zone " + num(z), report);
  }
  if (const core::HpmmapModule* module = node_.hpmmap_module(); module != nullptr) {
    module->allocator().for_each_buddy([&](ZoneId z, const mm::BuddyAllocator& buddy) {
      audit_buddy(buddy, "kitten zone " + num(z) + " @" + hex(buddy.range().begin), report);
    });
  }
}

void MmAuditor::audit_caches(AuditReport& report) {
  mm::MemorySystem& memory = node_.memory();
  for (ZoneId z = 0; z < memory.zone_count(); ++z) {
    audit_page_cache(memory.buddy(z), memory.cache(z), "zone " + num(z), report);
  }
}

void MmAuditor::audit_vmas(AuditReport& report) {
  const core::HpmmapModule* module = node_.hpmmap_module();
  node_.for_each_process([&](const os::Process& proc) {
    if (!proc.alive()) {
      return;
    }
    ++report.checks;
    if (!proc.address_space().vmas().check_consistency()) {
      report.add("vma.inconsistent", "pid " + num(proc.pid()) + ": Linux VMA tree");
    }
    if (module != nullptr) {
      if (const mm::VmaTree* regions = module->regions_for(proc.pid()); regions != nullptr) {
        ++report.checks;
        if (!regions->check_consistency()) {
          report.add("vma.inconsistent", "pid " + num(proc.pid()) + ": HPMMAP region list");
        }
      }
    }
  });
}

void MmAuditor::audit_page_tables(AuditReport& report) {
  const hw::PhysicalMemory& phys = node_.phys();
  const core::HpmmapModule* module = node_.hpmmap_module();
  node_.for_each_process([&](const os::Process& proc) {
    if (!proc.alive()) {
      return;
    }
    const Pid pid = proc.pid();
    const mm::AddressSpace& as = proc.address_space();
    hw::MappingMix recount;
    as.page_table().for_each_leaf([&](Addr va, mm::Translation t) {
      const std::uint64_t size = bytes(t.size);
      switch (t.size) {
        case PageSize::k4K: recount.bytes_4k += size; break;
        case PageSize::k2M: recount.bytes_2m += size; break;
        case PageSize::k1G: recount.bytes_1g += size; break;
      }
      // Which manager's region list should contain this leaf?
      const bool window = core::HpmmapModule::in_window(va);
      const mm::VmaTree* tree = nullptr;
      if (window) {
        tree = module != nullptr ? module->regions_for(pid) : nullptr;
        ++report.checks;
        if (tree == nullptr) {
          report.add("pte.window_unregistered",
                     "pid " + num(pid) + ": leaf " + hex(va) +
                         " in HPMMAP window but pid not registered");
          return;
        }
      } else {
        tree = &as.vmas();
      }
      const mm::Vma* vma = tree->find(va);
      ++report.checks;
      if (vma == nullptr || !vma->range.contains(Range{va, va + size})) {
        report.add("pte.outside_vma",
                   "pid " + num(pid) + ": leaf " + hex(va) + " size " + num(size) +
                       (vma == nullptr ? " inside no VMA"
                                       : " straddles VMA " + hex(vma->range.begin) + "-" +
                                             hex(vma->range.end)));
        return;
      }
      ++report.checks;
      if (t.prot != vma->prot) {
        report.add("pte.prot_mismatch",
                   "pid " + num(pid) + ": leaf " + hex(va) + " prot " +
                       num(static_cast<std::uint32_t>(t.prot)) + " != VMA prot " +
                       num(static_cast<std::uint32_t>(vma->prot)));
      }
      // Isolation (§III-A): window mappings live on offlined frames,
      // Linux mappings on online frames — the managers never cross.
      ++report.checks;
      if (phys.valid(t.phys) && phys.is_offline(t.phys) != window) {
        report.add("pte.isolation",
                   "pid " + num(pid) + ": leaf " + hex(va) + " -> frame " + hex(t.phys) +
                       (window ? " (window leaf on online frame)"
                               : " (Linux leaf on offlined frame)"));
      }
    });
    const hw::MappingMix stored = as.mapping_mix();
    ++report.checks;
    if (stored.bytes_4k != recount.bytes_4k || stored.bytes_2m != recount.bytes_2m ||
        stored.bytes_1g != recount.bytes_1g) {
      report.add("pte.mix_drift",
                 "pid " + num(pid) + ": stored mix 4k/2m/1g " + num(stored.bytes_4k) + "/" +
                     num(stored.bytes_2m) + "/" + num(stored.bytes_1g) + " != recount " +
                     num(recount.bytes_4k) + "/" + num(recount.bytes_2m) + "/" +
                     num(recount.bytes_1g));
    }
    // A page sits in swap or in the page table, never both (the TLB/mix
    // consuming only mapped leaves depends on this).
    for (Addr page : as.swapped_set()) {
      ++report.checks;
      if (as.page_table().walk(page).has_value()) {
        report.add("pte.swapped_mapped",
                   "pid " + num(pid) + ": page " + hex(page) + " both swapped-out and mapped");
      }
    }
  });
}

void MmAuditor::audit_frames(AuditReport& report) {
  struct Interval {
    Addr begin;
    Addr end;
    const char* owner;
    Pid pid; // 0 for non-process owners
  };
  std::vector<Interval> frames;
  const hw::PhysicalMemory& phys = node_.phys();
  node_.for_each_process([&](const os::Process& proc) {
    if (!proc.alive()) {
      return;
    }
    proc.address_space().page_table().for_each_leaf([&](Addr va, mm::Translation t) {
      (void)va;
      frames.push_back(Interval{t.phys, t.phys + bytes(t.size), "mapped", proc.pid()});
    });
  });
  mm::MemorySystem& memory = node_.memory();
  for (ZoneId z = 0; z < memory.zone_count(); ++z) {
    memory.buddy(z).for_each_free_block([&](Addr a, unsigned o) {
      frames.push_back(Interval{a, a + mm::BuddyAllocator::order_bytes(o), "buddy_free", 0});
    });
    memory.cache(z).for_each_block([&](Addr a, unsigned o, bool dirty) {
      (void)dirty;
      frames.push_back(Interval{a, a + mm::BuddyAllocator::order_bytes(o), "page_cache", 0});
    });
  }
  if (const mm::HugetlbPool* pool = node_.hugetlb(); pool != nullptr) {
    for (ZoneId z = 0; z < memory.zone_count(); ++z) {
      pool->for_each_pool_page(z, [&](Addr a) {
        frames.push_back(Interval{a, a + kLargePageSize, "hugetlb_pool", 0});
      });
    }
  }
  if (const mm::SmpDomain* smp = node_.smp(); smp != nullptr) {
    smp->for_each_pcp_frame([&](std::uint32_t cpu, ZoneId z, Addr a) {
      (void)cpu;
      (void)z;
      frames.push_back(Interval{a, a + kSmallPageSize, "pcp_cache", 0});
    });
  }
  if (const core::HpmmapModule* module = node_.hpmmap_module(); module != nullptr) {
    ++report.checks;
    if (!module->allocator().check_consistency()) {
      report.add("kitten.inconsistent", "a Kitten heap failed its structural check");
    }
    module->allocator().for_each_buddy([&](ZoneId z, const mm::BuddyAllocator& buddy) {
      (void)z;
      buddy.for_each_free_block([&](Addr a, unsigned o) {
        frames.push_back(Interval{a, a + mm::BuddyAllocator::order_bytes(o), "kitten_free", 0});
      });
    });
  }
  for (const Interval& iv : frames) {
    ++report.checks;
    if (!phys.valid(iv.begin) || !phys.valid(iv.end - 1)) {
      report.add("frame.invalid",
                 std::string{iv.owner} + " frames " + hex(iv.begin) + "-" + hex(iv.end) +
                     " outside physical RAM");
    }
  }
  // Every frame has at most one owner: a frame simultaneously mapped and
  // free (a leak into the freelists), mapped by two processes (a
  // double-map), or cached and pooled is exactly one overlap here.
  std::sort(frames.begin(), frames.end(), [](const Interval& x, const Interval& y) {
    return x.begin != y.begin ? x.begin < y.begin : x.end < y.end;
  });
  Addr watermark = 0;
  const Interval* holder = nullptr;
  for (const Interval& iv : frames) {
    ++report.checks;
    if (holder != nullptr && iv.begin < watermark) {
      report.add("frame.double_owner",
                 "frames " + hex(iv.begin) + "-" + hex(std::min(iv.end, watermark)) +
                     " owned by both " + holder->owner +
                     (holder->pid != 0 ? " (pid " + num(holder->pid) + ")" : "") + " and " +
                     iv.owner + (iv.pid != 0 ? " (pid " + num(iv.pid) + ")" : ""));
    }
    if (iv.end > watermark) {
      watermark = iv.end;
      holder = &iv;
    }
  }
}

void MmAuditor::audit_hugetlb(AuditReport& report) {
  const mm::HugetlbPool* pool = node_.hugetlb();
  if (pool == nullptr) {
    return;
  }
  mm::MemorySystem& memory = node_.memory();
  std::uint64_t total = 0;
  std::uint64_t free = 0;
  for (ZoneId z = 0; z < memory.zone_count(); ++z) {
    total += pool->total_pages(z);
    free += pool->free_pages(z);
    // The pool stack must walk to exactly the counted pages, each
    // marked kHugetlbPool in its zone's mem_map.
    const hw::MemMap& map = memory.buddy(z).mem_map();
    std::uint64_t walked = 0;
    pool->for_each_pool_page(z, [&](Addr a) {
      ++walked;
      const std::uint32_t frame = map.index_of(a);
      ++report.checks;
      if (map.state(frame) != hw::FrameState::kHugetlbPool ||
          map.order(frame) != mm::kLargePageOrder) {
        report.add("hugetlb.memmap_state",
                   "zone " + num(z) + ": pooled page " + hex(a) +
                       " has mem_map state " +
                       num(static_cast<std::uint64_t>(map.state(frame))) + " order " +
                       num(map.order(frame)));
      }
    });
    ++report.checks;
    if (walked != pool->free_pages(z)) {
      report.add("hugetlb.stack",
                 "zone " + num(z) + ": pool stack walks to " + num(walked) +
                     " pages, counter says " + num(pool->free_pages(z)));
    }
  }
  // Pages leave the pool only by being mapped into a hugetlb VMA; count
  // those leaves and demand conservation (global, because alloc_page
  // spills across zones under pressure).
  std::uint64_t used = 0;
  node_.for_each_process([&](const os::Process& proc) {
    if (!proc.alive()) {
      return;
    }
    const mm::AddressSpace& as = proc.address_space();
    as.page_table().for_each_leaf([&](Addr va, mm::Translation t) {
      if (t.size != PageSize::k2M) {
        return;
      }
      const mm::Vma* vma = as.vmas().find(va);
      if (vma != nullptr && vma->kind == mm::VmaKind::kHugetlb) {
        ++used;
      }
    });
  });
  ++report.checks;
  if (free + used != total) {
    report.add("hugetlb.conservation",
               "pool free " + num(free) + " + mapped " + num(used) + " != reserved " +
                   num(total));
  }
}

void MmAuditor::audit_pcp(AuditReport& report) {
  const mm::SmpDomain* smp = node_.smp();
  if (smp == nullptr) {
    return;
  }
  mm::MemorySystem& memory = node_.memory();
  // list -> mem_map direction: every cached frame is an in-range order-0
  // kPcpCache head, and no frame sits on two CPUs' lists (a frame popped
  // by two cores at once is the double-alloc waiting to happen).
  std::map<Addr, std::uint32_t> owner; // frame -> first owning cpu
  std::vector<std::uint64_t> listed(memory.zone_count(), 0);
  smp->for_each_pcp_frame([&](std::uint32_t cpu, ZoneId z, Addr a) {
    ++report.checks;
    if (z >= memory.zone_count()) {
      report.add("pcp.out_of_range",
                 "cpu " + num(cpu) + ": cached frame " + hex(a) + " names zone " + num(z) +
                     " beyond the machine's " + num(memory.zone_count()));
      return;
    }
    ++listed[z];
    const mm::BuddyAllocator& buddy = memory.buddy(z);
    ++report.checks;
    if (!buddy.range().contains(a)) {
      report.add("pcp.out_of_range",
                 "cpu " + num(cpu) + ": cached frame " + hex(a) + " outside zone " + num(z));
    } else {
      const hw::MemMap& map = buddy.mem_map();
      const std::uint32_t frame = map.index_of(a);
      ++report.checks;
      if (map.state(frame) != hw::FrameState::kPcpCache || map.order(frame) != 0) {
        report.add("pcp.memmap_state",
                   "cpu " + num(cpu) + " zone " + num(z) + ": cached frame " + hex(a) +
                       " has mem_map state " +
                       num(static_cast<std::uint64_t>(map.state(frame))) + " order " +
                       num(map.order(frame)));
      }
    }
    ++report.checks;
    const auto [it, fresh] = owner.emplace(a, cpu);
    if (!fresh) {
      report.add("pcp.duplicate",
                 "zone " + num(z) + ": frame " + hex(a) + " cached by both cpu " +
                     num(it->second) + " and cpu " + num(cpu));
    }
  });
  // mem_map -> list direction plus per-zone conservation: the kPcpCache
  // heads the metadata sweep finds are exactly the frames the lists
  // carry (an orphan mark hides a frame from every allocator forever; a
  // count drift means a mark was lost or a frame double-listed).
  for (ZoneId z = 0; z < memory.zone_count(); ++z) {
    const hw::MemMap& map = memory.buddy(z).mem_map();
    std::uint64_t heads = 0;
    map.for_each_head([&](Addr a, hw::FrameState st, unsigned o) {
      if (st != hw::FrameState::kPcpCache) {
        return;
      }
      (void)o;
      ++heads;
      ++report.checks;
      if (owner.find(a) == owner.end()) {
        report.add("pcp.memmap_orphan",
                   "zone " + num(z) + ": mem_map marks " + hex(a) +
                       " pcp-cached but no CPU list holds it");
      }
    });
    ++report.checks;
    if (heads != listed[z]) {
      report.add("pcp.conservation",
                 "zone " + num(z) + ": mem_map holds " + num(heads) +
                     " pcp heads, the CPU lists carry " + num(listed[z]) + " frames");
    }
  }
}

} // namespace hpmmap::verify
