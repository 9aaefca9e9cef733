#include "linux_mm/hugetlbfs.hpp"

#include "common/assert.hpp"
#include "common/log.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "verify/fault_inject.hpp"

namespace hpmmap::mm {

void HugetlbPool::push(ZoneId zone, Addr addr) {
  hw::MemMap& m = memory_.buddy(zone).mem_map();
  HPMMAP_ASSERT(m.contains(addr), "pooled page outside its zone");
  const std::uint32_t idx = m.index_of(addr);
  // No state assertion here: the auditor, not this push, is responsible
  // for flagging a page returned while still mapped (leak detection
  // tests drive exactly that). A page that is already pooled — a double
  // free_page — is only re-accounted, never re-pushed: a count/stack
  // mismatch is exactly what the auditor's conservation and stack-walk
  // checks exist to catch.
  const bool pooled = m.state(idx) == hw::FrameState::kHugetlbPool;
  m.set_head(idx, hw::FrameState::kHugetlbPool, kLargePageOrder);
  if (!pooled) {
    pool_[zone].stack.push_back(idx);
  }
  ++pool_[zone].count;
}

HugetlbPool::HugetlbPool(MemorySystem& memory, std::uint64_t bytes_per_zone)
    : memory_(memory) {
  const std::uint32_t zones = memory_.zone_count();
  pool_.resize(zones);
  total_.assign(zones, 0);
  const std::uint64_t pages = bytes_per_zone / kLargePageSize;
  for (ZoneId z = 0; z < zones; ++z) {
    for (std::uint64_t i = 0; i < pages; ++i) {
      AllocOutcome out = memory_.alloc_pages(z, kLargePageOrder, /*allow_reclaim=*/true);
      HPMMAP_ASSERT(out.ok, "hugetlb boot reservation failed: zone too small/fragmented");
      push(z, out.addr);
    }
    total_[z] = pages;
    stats_.pool_pages_total += pages;
  }
  log_info("hugetlbfs", "reserved %llu x 2M pages per zone across %u zones", static_cast<unsigned long long>(pages), zones);
  trace::instant(trace::Category::kHugetlb, "hugetlb.reserve", 0, -1,
                 {trace::Arg::u64("pages_per_zone", pages), trace::Arg::u64("zones", zones)});
}

HugetlbPool::~HugetlbPool() {
  // Return whatever is still pooled; outstanding pages die with the
  // simulated machine.
  for (ZoneId z = 0; z < pool_.size(); ++z) {
    hw::MemMap& m = memory_.buddy(z).mem_map();
    while (!pool_[z].stack.empty()) {
      const std::uint32_t idx = pool_[z].stack.back();
      pool_[z].stack.pop_back();
      const Addr addr = m.addr_of(idx);
      m.clear_head(idx);
      --pool_[z].count;
      memory_.free_pages(z, addr, kLargePageOrder);
    }
  }
}

std::optional<std::pair<Addr, ZoneId>> HugetlbPool::alloc_page(ZoneId zone) {
  HPMMAP_ASSERT(zone < pool_.size(), "zone out of range");
  // Injected exhaustion: behave exactly as if every zone's pool were
  // empty (no page leaves the pool, so conservation holds); the caller
  // sees the same SIGBUS-path outcome a real dry pool produces.
  if (verify::injector().should_fail(verify::InjectPoint::kHugetlbAlloc)) {
    ++stats_.pool_exhausted;
    if (trace::on(trace::Category::kHugetlb)) {
      trace::instant(trace::Category::kHugetlb, "hugetlb.pool_exhausted", 0, -1,
                     {trace::Arg::u64("zone", zone)});
      ++trace::metrics().counter("hugetlb.pool_exhausted");
    }
    return std::nullopt;
  }
  for (std::uint32_t probe = 0; probe < pool_.size(); ++probe) {
    const ZoneId z = (zone + probe) % static_cast<ZoneId>(pool_.size());
    if (pool_[z].stack.empty()) {
      continue;
    }
    hw::MemMap& m = memory_.buddy(z).mem_map();
    const std::uint32_t idx = pool_[z].stack.back();
    pool_[z].stack.pop_back();
    const Addr addr = m.addr_of(idx);
    m.clear_head(idx);
    --pool_[z].count;
    ++stats_.faults_served;
    if (trace::on(trace::Category::kHugetlb)) {
      trace::instant(trace::Category::kHugetlb, "hugetlb.alloc", 0, -1,
                     {trace::Arg::u64("zone", z),
                      trace::Arg::u64("pool_free", pool_[z].count),
                      trace::Arg::u64("spilled", z == zone ? 0 : 1)});
      ++trace::metrics().counter("hugetlb.pages_served");
    }
    return std::make_pair(addr, z);
  }
  ++stats_.pool_exhausted;
  if (trace::on(trace::Category::kHugetlb)) {
    trace::instant(trace::Category::kHugetlb, "hugetlb.pool_exhausted", 0, -1,
                   {trace::Arg::u64("zone", zone)});
    ++trace::metrics().counter("hugetlb.pool_exhausted");
  }
  return std::nullopt;
}

void HugetlbPool::free_page(ZoneId zone, Addr addr) {
  HPMMAP_ASSERT(zone < pool_.size(), "zone out of range");
  push(zone, addr);
  if (trace::on(trace::Category::kHugetlb)) {
    trace::instant(trace::Category::kHugetlb, "hugetlb.free", 0, -1,
                   {trace::Arg::u64("zone", zone),
                    trace::Arg::u64("pool_free", pool_[zone].count)});
  }
}

std::uint64_t HugetlbPool::free_pages(ZoneId zone) const {
  HPMMAP_ASSERT(zone < pool_.size(), "zone out of range");
  return pool_[zone].count;
}

std::uint64_t HugetlbPool::total_pages(ZoneId zone) const {
  HPMMAP_ASSERT(zone < total_.size(), "zone out of range");
  return total_[zone];
}

} // namespace hpmmap::mm
