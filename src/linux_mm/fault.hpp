// The demand-paging fault handler — the code path whose cost the paper
// measures in Figures 2-5.
//
// Linux backs no allocation until first touch (§II-A); every touch of an
// unbacked page lands here. The handler's cost is composed from the
// mechanisms actually exercised on that fault:
//
//   wait on the PT lock (a khugepaged merge may hold it)
//   + handler entry + VMA lookup
//   + [THP] attempt order-9 allocation (reclaim/compaction under load)
//   + buddy allocation (order 0 fallback; direct reclaim under load)
//   + page zeroing at the contended streaming rate
//   + PTE install + rmap/LRU accounting
//   x lognormal jitter (caches, IRQs)
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "linux_mm/address_space.hpp"
#include "linux_mm/hugetlbfs.hpp"
#include "linux_mm/memory_system.hpp"
#include "linux_mm/thp.hpp"

namespace hpmmap::mm {

class SmpDomain;

/// Classification matching the paper's figures: "Small" (red), "Large"
/// (green), "Merge" = a fault that had to wait on a THP merge (blue).
enum class FaultKind : std::uint8_t {
  kSmall,         // 4K anonymous fault
  kLarge,         // 2M fault (THP fault path or hugetlbfs)
  kMergeFollower, // blocked behind a khugepaged merge
  kInvalid,       // segfault (no VMA / bad permissions)
};

/// Number of FaultKind values; sized arrays indexed by FaultKind use
/// this instead of a magic 4.
inline constexpr std::size_t kFaultKindCount = 4;

[[nodiscard]] constexpr std::string_view name(FaultKind k) noexcept {
  switch (k) {
    case FaultKind::kSmall:         return "Small";
    case FaultKind::kLarge:         return "Large";
    case FaultKind::kMergeFollower: return "Merge";
    case FaultKind::kInvalid:       return "Invalid";
  }
  return "?";
}

struct FaultResult {
  Errno err = Errno::kOk;
  FaultKind kind = FaultKind::kSmall;
  PageSize used = PageSize::k4K;
  Cycles cost = 0;           // total handler residence, incl. lock wait
  Cycles lock_wait = 0;      // portion spent queued on the PT lock
  bool entered_reclaim = false;
};

/// Per-process fault counters, grouped the way Figure 2/3 reports them.
struct FaultStats {
  std::uint64_t count[kFaultKindCount] = {};   // indexed by FaultKind
  Cycles total_cycles[kFaultKindCount] = {};
  void record(FaultKind kind, Cycles cost) noexcept {
    const auto i = static_cast<std::size_t>(kind);
    ++count[i];
    total_cycles[i] += cost;
  }
};

/// A first-touch run (DESIGN §9.4). Once a fault in a 2 MiB region ends
/// in a 4 KiB install, the following first touches of that region and
/// VMA already know the VMA, the region's leaf table (PT), that the
/// region is no longer THP-eligible and that khugepaged has it queued.
/// A caller faulting a range in address order keeps one run on its
/// stack and hands it to every handle() call; handle() opens, extends
/// and closes it. It never outlives that loop, so snapshots never see it.
class FaultRun {
 public:
  /// Whether `vaddr` lies in the open run: its PTE can then be tested
  /// with pte_mapped() instead of a page-table walk.
  [[nodiscard]] bool covers(Addr vaddr) const noexcept { return span_.contains(vaddr); }
  /// The PTE test for a covered address.
  [[nodiscard]] bool pte_mapped(const AddressSpace& as, Addr vaddr) const noexcept {
    return as.page_table().pte_present(pt_, vaddr);
  }

 private:
  friend class FaultHandler;

  const AddressSpace* as_ = nullptr;
  const Vma* vma_ = nullptr;
  Range span_{};        // [first page, min(2M region end, VMA end)); empty = closed
  std::uint32_t pt_ = 0; // the region's leaf table
};

struct FaultSpans;

class FaultHandler {
 public:
  /// `thp` may be null (THP disabled); `hugetlb` may be null (no pools).
  FaultHandler(MemorySystem& memory, ThpService* thp, HugetlbPool* hugetlb);

  /// Handle a fault at `vaddr` at simulated time `now`. Does not advance
  /// any clock: the caller charges `result.cost` to the faulting thread.
  /// `core` only tags trace events (per-core Perfetto tracks). With a
  /// `run`, a fault it covers skips the VMA lookup, the page-table walks
  /// and the THP attempt its region already answered; the outcome is
  /// identical to the call without one (DESIGN §9.4).
  FaultResult handle(AddressSpace& as, Addr vaddr, Cycles now, std::int32_t core = -1,
                     FaultRun* run = nullptr);

  /// With an SmpDomain attached (and core >= 0) the handler *executes*
  /// its lock acquisitions — zone buddy lock (or pcp fast path), PT
  /// shard, pending IPI drain — against the domain's virtual-clock lock
  /// state instead of running the uncontended single-core path.
  void attach_smp(SmpDomain* smp) noexcept { smp_ = smp; }

 private:
  FaultResult handle_hugetlb(AddressSpace& as, const Vma& vma, Addr vaddr, Cycles now,
                             Cycles base_cost, Cycles lock_wait, Cycles merge_wait,
                             std::int32_t core);
  /// The 4 KiB body every small fault runs, a run's first page or not:
  /// swap-in, allocation, PTE install, zeroing, jitter.
  FaultResult handle_small(AddressSpace& as, const Vma& vma, Addr vaddr, Cycles now,
                           Cycles merge_wait, FaultResult result, FaultSpans& ft,
                           std::int32_t core, FaultRun* run);
  FaultResult finish(FaultResult result, ZoneId zone);

  MemorySystem& memory_;
  ThpService* thp_;
  HugetlbPool* hugetlb_;
  SmpDomain* smp_ = nullptr;
  // finish()'s jitter parameters, keyed on the exact (mean, stdev) they
  // were derived from and indexed by service cycles: a node's faults
  // cycle through a few dozen service costs (buddy split depth, zeroing
  // under the current bandwidth demand), so the table saves three libm
  // calls on nearly every fault. Derived state; snapshots skip it.
  struct JitterParams {
    double mean = 0.0; // 0 = empty: finish() never caches a mean <= 0
    double stdev = 0.0;
    Rng::LognormalParams params{};
  };
  std::array<JitterParams, 64> jitter_{};
};

} // namespace hpmmap::mm
