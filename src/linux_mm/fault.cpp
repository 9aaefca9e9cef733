#include "linux_mm/fault.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "linux_mm/smp.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace hpmmap::mm {

// Component breakdown collected only while the fault category is
// enabled. Spans are laid out back-to-back under the parent "fault"
// event, giving Perfetto the per-fault cost decomposition the paper's
// Figure 2/3 tables aggregate. Durations are the pre-jitter component
// model; the parent span carries the final (jittered) handler cost.
struct FaultSpans {
  struct Span {
    const char* name;
    Cycles dur;
  };
  bool active = false;
  std::array<Span, 6> spans{};
  std::size_t n = 0;

  void add(const char* span_name, Cycles dur) {
    if (active && dur > 0 && n < spans.size()) {
      spans[n++] = Span{span_name, dur};
    }
  }
};

namespace {

constexpr const char* cycles_histogram(FaultKind k) {
  switch (k) {
    case FaultKind::kSmall:         return "fault.cycles.small";
    case FaultKind::kLarge:         return "fault.cycles.large";
    case FaultKind::kMergeFollower: return "fault.cycles.merge";
    case FaultKind::kInvalid:       return "fault.cycles.invalid";
  }
  return "fault.cycles.invalid";
}

FaultResult emit_fault(const AddressSpace& as, Cycles now, std::int32_t core, FaultResult r,
                       const FaultSpans& ft) {
  if (!ft.active) {
    return r;
  }
  trace::complete(trace::Category::kFault, "fault", now, r.cost, as.pid(), core,
                  {trace::Arg::str("kind", name(r.kind).data()),
                   trace::Arg::str("page", name(r.used).data()),
                   trace::Arg::u64("lock_wait", r.lock_wait),
                   trace::Arg::u64("reclaim", r.entered_reclaim ? 1 : 0)});
  Cycles cursor = now;
  for (std::size_t i = 0; i < ft.n; ++i) {
    trace::complete(trace::Category::kFault, ft.spans[i].name, cursor, ft.spans[i].dur, as.pid(),
                    core);
    cursor += ft.spans[i].dur;
  }
  trace::metrics().histogram(cycles_histogram(r.kind)).add(static_cast<double>(r.cost));
  ++trace::metrics().counter("fault.count");
  if (r.entered_reclaim) {
    ++trace::metrics().counter("fault.direct_reclaim");
  }
  return r;
}

} // namespace

FaultHandler::FaultHandler(MemorySystem& memory, ThpService* thp, HugetlbPool* hugetlb)
    : memory_(memory), thp_(thp), hugetlb_(hugetlb) {}

FaultResult FaultHandler::finish(FaultResult result, ZoneId zone) {
  // Lognormal jitter on the service portion (not the queueing wait):
  // cache state, IRQ arrivals, sibling interference.
  const Cycles service_cycles = result.cost - result.lock_wait;
  const auto service = static_cast<double>(service_cycles);
  const double stdev = memory_.costs().fault_jitter_cv * service;
  double jittered = 0.0;
  if (service > 0.0) { // lognormal_from_moments() split around the cache
    JitterParams& slot = jitter_[service_cycles % jitter_.size()];
    if (slot.mean != service || slot.stdev != stdev) {
      slot = JitterParams{service, stdev, Rng::lognormal_params(service, stdev)};
    }
    jittered = memory_.rng().lognormal(slot.params);
  }
  result.cost = result.lock_wait + static_cast<Cycles>(jittered);
  // Bandwidth contention already shaped the zeroing terms; the handler's
  // pointer-chasing parts also degrade a little on a saturated node.
  const double factor = 1.0 + 0.15 * (memory_.bandwidth().contention_factor(zone) - 1.0);
  result.cost = static_cast<Cycles>(static_cast<double>(result.cost) * factor);
  return result;
}

FaultResult FaultHandler::handle(AddressSpace& as, Addr vaddr, Cycles now, std::int32_t core,
                                 FaultRun* run) {
  const CostModel& costs = memory_.costs();
  FaultResult result;
  FaultSpans ft;
  ft.active = trace::on(trace::Category::kFault);

  // Queue on the page-table lock first: if khugepaged is mid-merge we
  // wait for the full remainder of the merge (§II-B), and the fault is
  // classified as a merge-follower — the paper's "Merge" rows. SMP lock
  // waits below also land in lock_wait but never reclassify the fault.
  const Cycles merge_wait = as.lock_wait(now);
  result.lock_wait = merge_wait;
  if (smp_ != nullptr && core >= 0) {
    // Service shootdown IPIs that remote cores' munmaps queued on this
    // CPU while it ran userspace; the backlog drains at kernel entry.
    result.lock_wait += smp_->cpu_drain(core, now);
  }
  result.cost = result.lock_wait + costs.fault_entry + costs.vma_lookup;
  ft.add("fault.pt_lock", result.lock_wait);
  ft.add("fault.entry", costs.fault_entry + costs.vma_lookup);

  if (run != nullptr) {
    // The run covers this page while its PT still holds a live PTE and
    // this one is empty: same VMA, and the region stays THP-ineligible
    // and queued with khugepaged, so the THP attempt would fall back
    // without allocating and note_fallback() would dedup (DESIGN §9.4).
    if (run->as_ == &as && run->covers(vaddr) && as.page_table().live_entries(run->pt_) > 0 &&
        !run->pte_mapped(as, vaddr)) {
      if (thp_ != nullptr) {
        thp_->count_known_fallback();
      }
      return handle_small(as, *run->vma_, vaddr, now, merge_wait, result, ft, core, run);
    }
    run->span_ = Range{};
  }

  const Vma* vma = as.vmas().find(vaddr);
  if (vma == nullptr || vma->prot == Prot::kNone) {
    result.err = Errno::kFault;
    result.kind = FaultKind::kInvalid;
    return emit_fault(as, now, core, result, ft);
  }

  const ZoneId zone = as.zone_for(vaddr);

  // After waiting out a merge the region may now be huge-mapped; the
  // fault then only re-checks and returns (cost already dominated by the
  // wait). Also covers benign races on already-mapped pages.
  if (const auto t = as.page_table().walk(vaddr); t.has_value()) {
    result.kind = merge_wait > 0 ? FaultKind::kMergeFollower : FaultKind::kSmall;
    result.used = t->size;
    result.cost += costs.pte_install;
    ft.add("fault.pt", costs.pte_install);
    return emit_fault(as, now, core, finish(result, zone), ft);
  }

  if (vma->kind == VmaKind::kHugetlb) {
    return handle_hugetlb(as, *vma, vaddr, now, result.cost, result.lock_wait, merge_wait, core);
  }

  // --- THP fault path: try a 2M mapping first (§II-B) -------------------
  if (thp_ != nullptr) {
    ThpService::HugeFaultResult huge = thp_->try_fault_huge(as, *vma, vaddr);
    if (huge.ok) {
      const Addr base = align_down(vaddr, kLargePageSize);
      const Errno err = as.page_table().map(base, huge.phys, PageSize::k2M, vma->prot);
      HPMMAP_ASSERT(err == Errno::kOk, "THP eligibility check guaranteed an empty region");
      result.kind = merge_wait > 0 ? FaultKind::kMergeFollower : FaultKind::kLarge;
      result.used = PageSize::k2M;
      result.entered_reclaim = huge.alloc.entered_reclaim;
      const Cycles alloc_cost = memory_.alloc_cycles(huge.alloc, zone);
      const Cycles zero = memory_.zero_cost(zone, kLargePageSize, costs.zero_bytes_per_cycle);
      const Cycles pt = costs.pt_alloc_table + costs.pte_install + costs.rmap_account_large;
      if (smp_ != nullptr && core >= 0) {
        // Order-9 allocations always go through the zone lock (no pcp
        // path exists for them), then the PT lock covers the install —
        // plus the 2 MiB zeroing when sharding is off.
        const Cycles zw = smp_->zone_lock(zone, now, alloc_cost, core);
        const bool sharded = smp_->config().sharded_pt_locks;
        const Cycles ptw = smp_->pt_lock(as.pid(), vaddr, now, sharded ? pt : zero + pt, core);
        result.lock_wait += zw + ptw;
        result.cost += zw + ptw;
      }
      result.cost += alloc_cost + zero + pt;
      ft.add("fault.alloc", alloc_cost);
      ft.add("fault.zero", zero);
      ft.add("fault.pt", pt);
      return emit_fault(as, now, core, finish(result, zone), ft);
    }
    const Cycles failed_alloc = huge.alloc.entered_reclaim || huge.alloc.entered_compaction
                                    ? memory_.alloc_cycles(huge.alloc, zone)
                                    : 0;
    result.cost += failed_alloc;
    ft.add("fault.thp_attempt", failed_alloc);
  }

  return handle_small(as, *vma, vaddr, now, merge_wait, result, ft, core, run);
}

FaultResult FaultHandler::handle_small(AddressSpace& as, const Vma& vma, Addr vaddr, Cycles now,
                                       Cycles merge_wait, FaultResult result, FaultSpans& ft,
                                       std::int32_t core, FaultRun* run) {
  const CostModel& costs = memory_.costs();
  const ZoneId zone = as.zone_for(vaddr);
  // Major fault? Reclaim may have pushed this page to swap; the refault
  // pays a disk read on top of the normal path.
  const Addr page = align_down(vaddr, kSmallPageSize);
  const bool swapped_in = as.take_swapped(page);
  if (swapped_in) {
    const auto swap_cost = static_cast<Cycles>(memory_.rng().lognormal_from_moments(
        static_cast<double>(costs.swap_in_mean),
        costs.swap_in_cv * static_cast<double>(costs.swap_in_mean)));
    result.cost += swap_cost;
    ft.add("fault.swap_in", swap_cost);
  }
  ZoneId alloc_zone = zone;
  Addr frame = 0;
  bool alloc_ok = false;
  bool entered_reclaim = false;
  Cycles alloc_cost = 0; // buddy/pcp service cycles
  Cycles alloc_wait = 0; // zone-lock wait cycles (SMP only)
  if (smp_ != nullptr && core >= 0) {
    SmallAlloc sa = smp_->alloc_small(memory_, alloc_zone, core, now);
    alloc_cost += sa.work;
    alloc_wait += sa.wait;
    if (!sa.ok) {
      // NUMA spill: try the least-loaded other zone before declaring OOM.
      alloc_zone = memory_.fallback_zone(zone);
      if (alloc_zone != zone) {
        sa = smp_->alloc_small(memory_, alloc_zone, core, now);
        alloc_cost += sa.work;
        alloc_wait += sa.wait;
      }
    }
    frame = sa.addr;
    alloc_ok = sa.ok;
    entered_reclaim = sa.entered_reclaim;
  } else {
    AllocOutcome out = memory_.alloc_pages(alloc_zone, 0, /*allow_reclaim=*/true);
    if (!out.ok) {
      // NUMA spill: try the least-loaded other zone before declaring OOM.
      alloc_zone = memory_.fallback_zone(zone);
      if (alloc_zone != zone) {
        out = memory_.alloc_pages(alloc_zone, 0, /*allow_reclaim=*/true);
      }
    }
    frame = out.addr;
    alloc_ok = out.ok;
    entered_reclaim = out.entered_reclaim;
    if (alloc_ok) {
      alloc_cost = memory_.alloc_cycles(out, alloc_zone);
    }
  }
  if (!alloc_ok) {
    if (run != nullptr) {
      run->span_ = Range{};
    }
    result.err = Errno::kNoMem;
    result.kind = FaultKind::kInvalid;
    result.lock_wait += alloc_wait;
    result.cost += alloc_wait + alloc_cost;
    return emit_fault(as, now, core, result, ft);
  }
  PtOpStats pt_stats;
  // handle() closed the run unless this page continues it.
  if (run != nullptr && run->covers(vaddr)) {
    as.page_table().install_pte(run->pt_, page, frame, vma.prot);
  } else {
    const Errno err = as.page_table().map(page, frame, PageSize::k4K, vma.prot, &pt_stats);
    HPMMAP_ASSERT(err == Errno::kOk, "walk() said this page was unmapped");
    // khugepaged_enter: a THP-eligible region just went small; the daemon
    // will revisit it (and inject merge noise right here, Figure 4).
    if (thp_ != nullptr && vma.thp_eligible) {
      thp_->note_fallback(&as, vaddr);
    }
    if (run != nullptr) {
      // Open a run over the rest of this region and VMA.
      const Addr region_end = align_down(vaddr, kLargePageSize) + kLargePageSize;
      run->as_ = &as;
      run->vma_ = &vma;
      run->span_ = Range{page, std::min(region_end, vma.range.end)};
      run->pt_ = *as.page_table().leaf_table(page);
    }
  }
  result.kind = merge_wait > 0 ? FaultKind::kMergeFollower : FaultKind::kSmall;
  result.used = PageSize::k4K;
  result.entered_reclaim = entered_reclaim;
  const Cycles zero = memory_.zero_cost(alloc_zone, kSmallPageSize, costs.zero_bytes_per_cycle);
  const Cycles pt =
      pt_stats.tables_allocated * costs.pt_alloc_table + costs.pte_install + costs.rmap_account;
  if (smp_ != nullptr && core >= 0) {
    // Sharded mode locks only the install; the Linux-1999 shape holds
    // one mm-wide lock across zeroing *and* install, so concurrent
    // faulters serialize on the zeroing too.
    const bool sharded = smp_->config().sharded_pt_locks;
    alloc_wait += smp_->pt_lock(as.pid(), page, now, sharded ? pt : zero + pt, core);
  }
  result.lock_wait += alloc_wait;
  result.cost += alloc_wait + alloc_cost + zero + pt;
  ft.add("fault.alloc", alloc_cost);
  ft.add("fault.zero", zero);
  ft.add("fault.pt", pt);
  return emit_fault(as, now, core, finish(result, alloc_zone), ft);
}

FaultResult FaultHandler::handle_hugetlb(AddressSpace& as, const Vma& vma, Addr vaddr, Cycles now,
                                         Cycles base_cost, Cycles lock_wait, Cycles merge_wait,
                                         std::int32_t core) {
  const CostModel& costs = memory_.costs();
  FaultResult result;
  result.cost = base_cost;
  result.lock_wait = lock_wait;
  FaultSpans ft;
  ft.active = trace::on(trace::Category::kFault);
  ft.add("fault.pt_lock", lock_wait);
  ft.add("fault.entry", base_cost - lock_wait);

  HPMMAP_ASSERT(hugetlb_ != nullptr, "hugetlb VMA without a pool configured");
  const ZoneId zone = as.zone_for(vaddr);
  const auto page = hugetlb_->alloc_page(zone);
  if (!page.has_value()) {
    result.err = Errno::kNoMem; // SIGBUS on the real system
    result.kind = FaultKind::kInvalid;
    return emit_fault(as, now, core, result, ft);
  }
  const auto [phys, got_zone] = *page;
  const Addr base = align_down(vaddr, kLargePageSize);
  PtOpStats pt_stats;
  const Errno err = as.page_table().map(base, phys, PageSize::k2M, vma.prot, &pt_stats);
  HPMMAP_ASSERT(err == Errno::kOk, "hugetlb region double-mapped");
  result.kind = merge_wait > 0 ? FaultKind::kMergeFollower : FaultKind::kLarge;
  result.used = PageSize::k2M;
  // The hugetlb path takes the hugetlb mutex and reservation map, then
  // zeroes 2 MiB without the clearing-cache assists the normal path has;
  // this is why Figure 3's large faults are pricier than THP's yet
  // mostly load-insensitive (pool memory is never contended).
  const Cycles zero =
      memory_.zero_cost(got_zone, kLargePageSize, costs.hugetlb_zero_bytes_per_cycle);
  const Cycles pt = pt_stats.tables_allocated * costs.pt_alloc_table + costs.pte_install;
  result.cost += costs.hugetlb_fault_overhead + zero + pt;
  ft.add("fault.hugetlb_pool", costs.hugetlb_fault_overhead);
  ft.add("fault.zero", zero);
  ft.add("fault.pt", pt);
  return emit_fault(as, now, core, finish(result, got_zone), ft);
}

} // namespace hpmmap::mm
