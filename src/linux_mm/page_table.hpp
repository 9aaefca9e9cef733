// Four-level x86-64 page tables (PML4 -> PDPT -> PD -> PT).
//
// Both memory managers drive this structure: Linux installs 4K PTEs and
// 2M PD entries through the fault path; HPMMAP installs 2M/1G leaves
// directly at allocation time in an otherwise-unused region of the
// 48-bit address space (§III-B). The structure is real — walks descend
// real levels, splits really replace a leaf with 512 children — while
// costs are charged by the caller from the step counts returned here.
//
// Entries are packed 8-byte words, like the hardware's: bit 0 = leaf,
// bit 1 = child present, bits 2-4 = protection, and the 4K-aligned
// payload from bit 12 (a physical frame for leaves, a node-pool index
// for children). Nodes are exactly 4 KiB (512 words) and live in an
// index-addressed pool with a free list, so a walk touches one cache
// line per level and map/unmap never call the heap once the pool is
// warm.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "hw/tlb.hpp"

namespace hpmmap::snapshot {
struct Access;
}

namespace hpmmap::mm {

struct Translation {
  Addr phys = 0;
  PageSize size = PageSize::k4K;
  Prot prot = Prot::kNone;
};

/// Step counts for cost accounting: levels descended and table pages
/// freshly allocated during the operation.
struct PtOpStats {
  unsigned levels = 0;
  unsigned tables_allocated = 0;
  unsigned entries_written = 0;
};

class PageTable {
 public:
  PageTable();
  ~PageTable() = default;
  PageTable(PageTable&&) noexcept = default;
  PageTable& operator=(PageTable&&) noexcept = default;
  PageTable(const PageTable&) = delete;
  PageTable& operator=(const PageTable&) = delete;

  /// Install a leaf mapping. Fails with kExist if any part of the region
  /// is already mapped, kInval on misalignment.
  Errno map(Addr vaddr, Addr paddr, PageSize size, Prot prot, PtOpStats* stats = nullptr);

  /// Remove the leaf at `vaddr` (must match `size`). kNoEnt if absent.
  Errno unmap(Addr vaddr, PageSize size, PtOpStats* stats = nullptr);

  /// Change protections on an existing leaf.
  Errno protect(Addr vaddr, PageSize size, Prot prot);

  /// Translate. nullopt when unmapped.
  [[nodiscard]] std::optional<Translation> walk(Addr vaddr) const;

  /// Split a 2M leaf into 512 4K leaves covering the same physical range
  /// (what THP does when a large page must be mlocked, §II-B). Returns
  /// kNoEnt if no 2M leaf maps `vaddr`.
  Errno split_large(Addr vaddr, PtOpStats* stats = nullptr);

  /// Byte totals of current leaf mappings per page size — the MappingMix
  /// the TLB model consumes.
  [[nodiscard]] hw::MappingMix mapping_mix() const noexcept { return mix_; }

  /// Count of leaf mappings whose translation lies in [range).
  [[nodiscard]] std::uint64_t mapped_bytes(Range vrange) const;

  /// Number of 4K leaves inside the 2M-aligned region containing `vaddr`
  /// — O(depth), used by khugepaged to pick merge candidates.
  [[nodiscard]] unsigned small_count_in_2m(Addr vaddr) const;

  // --- leaf tables: the first-touch run's handle (DESIGN §9.4) ----------
  /// Pool index of the last-level table (PT) under the 2M region around
  /// `vaddr`; nullopt when the region has none (unmapped, or a 2M leaf).
  /// The index stays valid until a 2M leaf replaces the emptied table.
  [[nodiscard]] std::optional<std::uint32_t> leaf_table(Addr vaddr) const;

  /// Live 4K leaves in leaf table `pt`.
  [[nodiscard]] unsigned live_entries(std::uint32_t pt) const noexcept { return used_[pt]; }

  /// Whether the PTE for `vaddr` in leaf table `pt` is populated.
  [[nodiscard]] bool pte_present(std::uint32_t pt, Addr vaddr) const noexcept {
    return is_leaf(nodes_[pt].slots[index_at(vaddr, 0)]);
  }

  /// map() of a 4K page without the walk, for a caller already holding
  /// its leaf table `pt`. The PTE slot must be empty.
  void install_pte(std::uint32_t pt, Addr vaddr, Addr paddr, Prot prot);

  /// True if a 2M (or larger) leaf already covers `vaddr`.
  [[nodiscard]] bool large_leaf_at(Addr vaddr) const;

  /// Pages consumed by the table structure itself.
  [[nodiscard]] std::uint64_t table_pages() const noexcept { return table_pages_; }

  /// Visit every leaf as (vaddr, Translation); deterministic order.
  template <typename Fn>
  void for_each_leaf(Fn&& fn) const {
    visit_leaves(kRoot, 0, 3, fn);
  }

 private:
  friend struct hpmmap::snapshot::Access;

  static constexpr unsigned kFanout = 512;
  static constexpr std::uint32_t kRoot = 0;
  static constexpr std::uint64_t kLeafBit = 1;
  static constexpr std::uint64_t kChildBit = 2;

  /// A table page: 512 packed entry words, exactly 4 KiB.
  struct Node {
    std::array<std::uint64_t, kFanout> slots;
  };

  [[nodiscard]] static constexpr bool is_leaf(std::uint64_t e) noexcept {
    return (e & kLeafBit) != 0;
  }
  [[nodiscard]] static constexpr bool has_child(std::uint64_t e) noexcept {
    return (e & kChildBit) != 0;
  }
  [[nodiscard]] static constexpr Addr leaf_phys(std::uint64_t e) noexcept {
    return e & ~Addr{0xFFF};
  }
  [[nodiscard]] static constexpr Prot leaf_prot(std::uint64_t e) noexcept {
    return static_cast<Prot>((e >> 2) & 0x7u);
  }
  [[nodiscard]] static constexpr std::uint64_t make_leaf(Addr phys, Prot prot) noexcept {
    return phys | (static_cast<std::uint64_t>(prot) << 2) | kLeafBit;
  }
  [[nodiscard]] static constexpr std::uint32_t child_index(std::uint64_t e) noexcept {
    return static_cast<std::uint32_t>(e >> 12);
  }
  [[nodiscard]] static constexpr std::uint64_t make_child(std::uint32_t idx) noexcept {
    return (static_cast<std::uint64_t>(idx) << 12) | kChildBit;
  }

  /// Index of `vaddr` at `level` (level 3 = PML4 ... level 0 = PT).
  [[nodiscard]] static unsigned index_at(Addr vaddr, unsigned level) noexcept {
    return static_cast<unsigned>((vaddr >> (12 + 9 * level)) & (kFanout - 1));
  }
  /// Leaf level for a page size: 0 for 4K, 1 for 2M, 2 for 1G.
  [[nodiscard]] static unsigned leaf_level(PageSize size) noexcept;

  template <typename Fn>
  void visit_leaves(std::uint32_t node, Addr base, unsigned level, Fn&& fn) const {
    for (unsigned i = 0; i < kFanout; ++i) {
      const std::uint64_t e = nodes_[node].slots[i];
      const Addr va = base | (static_cast<Addr>(i) << (12 + 9 * level));
      if (is_leaf(e)) {
        const PageSize size = level == 0   ? PageSize::k4K
                              : level == 1 ? PageSize::k2M
                                           : PageSize::k1G;
        fn(va, Translation{leaf_phys(e), size, leaf_prot(e)});
      } else if (has_child(e)) {
        visit_leaves(child_index(e), va, level - 1, fn);
      }
    }
  }

  [[nodiscard]] std::uint32_t alloc_node();
  void free_node(std::uint32_t idx);
  void account_map(PageSize size, std::int64_t delta) noexcept;

  // deque: stable addresses across alloc_node() while holding slot
  // references, one 4 KiB chunk per node.
  std::deque<Node> nodes_;
  std::vector<std::uint16_t> used_;      // live entries per node
  std::vector<std::uint32_t> free_nodes_; // recycled pool indices
  hw::MappingMix mix_;
  std::uint64_t table_pages_ = 1; // the root
};

} // namespace hpmmap::mm
