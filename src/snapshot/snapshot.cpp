// Capture, restore and the image file. snapshot::Access is the single
// friend every mm/os/sim class grants; each structure's fields are listed
// once, in its io() walker, which Save runs for capture_world() and Load
// for restore_world() (DESIGN.md §12.1).
//
// Restore runs against a freshly booted world (same config, aged_boot
// off, builds constructed but not started) and overwrites it: the only
// state *not* overwritten is what boot derives deterministically from
// the configuration (PhysicalMemory section ownership, cost model, TLB
// geometry). Layout facts the fresh boot already holds — zone extents,
// order counts, the module's offlined ranges — go through ar.expect():
// written on capture, compared on restore, which is the cheap
// cross-check that the fresh boot really did reproduce the captured
// topology.

#include "snapshot/snapshot.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "hw/bandwidth.hpp"
#include "hw/mem_map.hpp"
#include "linux_mm/address_space.hpp"
#include "linux_mm/buddy_allocator.hpp"
#include "linux_mm/hugetlbfs.hpp"
#include "linux_mm/memory_system.hpp"
#include "linux_mm/page_cache.hpp"
#include "linux_mm/page_table.hpp"
#include "linux_mm/smp.hpp"
#include "linux_mm/thp.hpp"
#include "core/kitten_allocator.hpp"
#include "core/module.hpp"
#include "core/pid_registry.hpp"
#include "os/node.hpp"
#include "os/process.hpp"
#include "os/scheduler.hpp"
#include "sim/engine.hpp"
#include "sim/event_callback.hpp"
#include "snapshot/archive.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "verify/fault_inject.hpp"
#include "workloads/kernel_build.hpp"

namespace hpmmap::snapshot {
namespace {

constexpr std::uint32_t kMagic = 0x4e535048; // "HPSN"
constexpr std::uint32_t kVersion = 6; // v6: no mem_map link table; LRU/pool index sequences

/// Loaded trace strings live until process exit; std::set node stability
/// keeps every handed-out c_str() valid as the pool grows.
const char* intern(const std::string& s) {
  if (s.empty()) {
    return nullptr;
  }
  static std::mutex mu;
  static auto* pool = new std::set<std::string>();
  const std::lock_guard<std::mutex> lock(mu);
  return pool->insert(s).first->c_str();
}

} // namespace

struct Access {
  // --- engine primitives -------------------------------------------------

  static void clear_events(sim::Engine& e) {
    e.heap_.clear();
    e.slots_.clear(); // EventCallback dtors release their arena blocks
    e.free_slots_.clear();
    e.live_ = 0;
    e.daemon_live_ = 0;
  }

  /// schedule_entry() with an explicit sequence number and without
  /// advancing next_seq: re-arms a captured event so it fires at its
  /// original position in the global order.
  template <typename F>
  static sim::EventId schedule_raw(sim::Engine& e, Cycles when, std::uint64_t seq,
                                   bool daemon, F&& fn) {
    std::uint32_t slot;
    if (e.free_slots_.empty()) {
      slot = static_cast<std::uint32_t>(e.slots_.size());
      e.slots_.emplace_back();
    } else {
      slot = e.free_slots_.back();
      e.free_slots_.pop_back();
    }
    sim::Engine::Slot& s = e.slots_[slot];
    s.fn = sim::EventCallback(std::forward<F>(fn), &e.arena_);
    s.daemon = daemon;
    e.heap_.push_back(sim::Engine::Entry{when, seq, slot, s.gen});
    e.sift_up(e.heap_.size() - 1);
    ++e.live_;
    if (daemon) {
      ++e.daemon_live_;
    }
    return sim::EventId{slot + 1, s.gen};
  }

  static bool step(sim::Engine& e) { return e.fire_next(~Cycles{0}); }

  // --- fingerprint --------------------------------------------------------

  static Fingerprint fingerprint(const std::vector<os::Node*>& nodes,
                                 const std::vector<BuildRef>& builds) {
    Fingerprint fp;
    fp.emplace_back("nodes", nodes.size());
    fp.emplace_back("builds", builds.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      os::Node& n = *nodes[i];
      const std::string p = "node" + std::to_string(i);
      fp.emplace_back(p + ".zones", n.memory_->zone_count());
      fp.emplace_back(p + ".cores", n.config_.machine.total_cores());
      fp.emplace_back(p + ".ram", n.config_.machine.ram_bytes);
      fp.emplace_back(p + ".clock_khz",
                      static_cast<std::uint64_t>(n.config_.machine.clock_hz / 1000.0));
      fp.emplace_back(p + ".module", n.module_ ? 1 : 0);
      fp.emplace_back(p + ".hugetlb", n.hugetlb_ ? 1 : 0);
      fp.emplace_back(p + ".thp", n.thp_ ? 1 : 0);
      fp.emplace_back(p + ".smp_cores", n.smp_ ? n.smp_->config().cores : 0);
      for (ZoneId z = 0; z < n.memory_->zone_count(); ++z) {
        const Range r = n.memory_->buddy(z).range();
        fp.emplace_back(p + ".zone" + std::to_string(z) + ".begin", r.begin);
        fp.emplace_back(p + ".zone" + std::to_string(z) + ".end", r.end);
      }
    }
    for (std::size_t b = 0; b < builds.size(); ++b) {
      const std::string p = "build" + std::to_string(b);
      fp.emplace_back(p + ".node", builds[b].node_index);
      fp.emplace_back(p + ".jobs", builds[b].build->config_.jobs);
    }
    return fp;
  }

  // --- pointers as pids ---------------------------------------------------

  static os::Process& find_process(os::Node& node, Pid pid) {
    for (const auto& p : node.processes_) {
      if (p->pid_ == pid) {
        return *p;
      }
    }
    reject("image references a pid the world does not hold");
  }

  /// A Process*/AddressSpace* field, stored as its pid (0 = null) and
  /// resolved on load against the archive's node.
  template <class Ar, class T>
  static void ref(Ar& ar, T*& p) {
    Pid pid = p != nullptr ? p->pid() : 0;
    ar(pid);
    if constexpr (Ar::kLoad) {
      os::Process* proc = pid != 0 ? &find_process(*ar.node, pid) : nullptr;
      if constexpr (std::is_same_v<T, os::Process>) {
        p = proc;
      } else {
        p = proc != nullptr ? &proc->as_ : nullptr;
      }
    }
  }

  // --- hw / linux_mm ------------------------------------------------------

  template <class Ar>
  static void io(Ar& ar, hw::MemMap& m) {
    ar.expect(m.range_, "mem_map range mismatch");
    ar(m.meta_);
    ar.check(m.meta_.size() == m.range_.size() >> 12, "mem_map frame count mismatch");
  }

  /// A sequence of frame indices into `m` (LRU order, a pool stack);
  /// Load rejects an index outside the map.
  template <class Ar, class C>
  static void frames(Ar& ar, C& seq, const hw::MemMap& m) {
    ar.seq(seq, [&](std::uint32_t& idx) {
      ar(idx);
      ar.check(idx < m.frame_count(), "frame index out of range");
    });
  }

  template <class Ar>
  static void io(Ar& ar, mm::BuddyAllocator& b) {
    ar.expect(b.range_, "buddy range mismatch");
    ar.expect(b.max_order_, "buddy order count mismatch");
    ar.expect(b.lists_.size(), "buddy order count mismatch");
    ar(b.free_bytes_);
    for (mm::BuddyAllocator::OrderList& l : b.lists_) {
      ar(l.bits, l.summary, l.count, l.scan_hint);
    }
    io(ar, b.map_);
    ar(b.corrupt_blocks_);
    ar.pod(b.stats_);
  }

  template <class Ar>
  static void io(Ar& ar, mm::PageCache& c) {
    ar(c.count_, c.cached_bytes_, c.free_floor_, c.dirty_fraction_, c.grow_count_);
    frames(ar, c.lru_, c.buddy_.mem_map());
  }

  template <class Ar>
  static void io(Ar& ar, mm::MemorySystem& ms) {
    ar.pod(ms.rng_);
    ar.expect(ms.zones_.size(), "zone count mismatch");
    for (mm::MemorySystem::ZoneState& z : ms.zones_) {
      io(ar, z.buddy);
      io(ar, z.cache);
      ar(z.online_bytes, z.compact_cursor, z.compact_defer);
    }
  }

  template <class Ar>
  static void io(Ar& ar, mm::HugetlbPool& h) {
    ar.expect(h.pool_.size(), "hugetlb zone count mismatch");
    for (ZoneId z = 0; z < h.pool_.size(); ++z) {
      ar(h.pool_[z].count);
      frames(ar, h.pool_[z].stack, h.memory_.buddy(z).mem_map());
    }
    ar(h.total_);
    ar.pod(h.stats_);
  }

  template <class Ar>
  static void io(Ar& ar, mm::PageTable& pt) {
    ar.seq(pt.nodes_, [&](mm::PageTable::Node& n) { ar.pod(n.slots); });
    ar(pt.used_, pt.free_nodes_, pt.table_pages_);
    ar.pod(pt.mix_);
  }

  template <class Ar>
  static void io(Ar& ar, mm::VmaTree& tree) {
    std::vector<mm::Vma> vmas;
    if constexpr (!Ar::kLoad) {
      tree.for_each([&](const mm::Vma& v) { vmas.push_back(v); });
    }
    ar.seq(vmas, [&](mm::Vma& v) {
      ar(v.range, v.thp_eligible, v.locked);
      ar.enm(v.prot, kProtRWX);
      ar.enm(v.kind, mm::VmaKind::kHugetlb);
      ar.enm(v.hugetlb_size, [](PageSize s) {
        return s == PageSize::k4K || s == PageSize::k2M || s == PageSize::k1G;
      });
    });
    if constexpr (Ar::kLoad) {
      // Re-inserting the captured (maximally merged, disjoint) VMAs in
      // ascending order reproduces the tree: insert() only merges
      // adjacent *compatible* VMAs, and a consistent tree has none.
      (void)tree.remove(Range{0, ~Addr{0}});
      for (const mm::Vma& v : vmas) {
        ar.check(tree.insert(v) == Errno::kOk, "VMA re-insert failed");
      }
    }
  }

  template <class Ar>
  static void io(Ar& ar, mm::AddressSpace& as) {
    io(ar, as.vmas_);
    io(ar, as.pt_);
    ar(as.heap_base_, as.heap_end_, as.locked_until_, as.home_zone_, as.zone_count_);
    ar.enm(as.zone_policy_, mm::AddressSpace::ZonePolicy::kInterleave);
    // A membership-only set: sorted so equal worlds encode to equal bytes.
    std::vector<Addr> swapped;
    if constexpr (!Ar::kLoad) {
      swapped.assign(as.swapped_out_.begin(), as.swapped_out_.end());
      std::sort(swapped.begin(), swapped.end());
    }
    ar(swapped);
    if constexpr (Ar::kLoad) {
      as.swapped_out_.clear();
      as.swapped_out_.insert(swapped.begin(), swapped.end());
    }
  }

  template <class Ar>
  static void io(Ar& ar, mm::ThpService& t) {
    using Entry = std::pair<mm::AddressSpace*, Addr>;
    const auto entry = [&](auto& e) {
      ref(ar, e.first);
      ar(e.second);
    };
    ar.seq(t.processes_, [&](mm::AddressSpace*& as) { ref(ar, as); });
    ar.seq(t.enter_queue_, entry);
    // Pointer-keyed and membership-only: sorted by (pid, addr) so equal
    // worlds encode to equal bytes.
    std::vector<Entry> inflight;
    if constexpr (!Ar::kLoad) {
      inflight.assign(t.inflight_.begin(), t.inflight_.end());
      std::sort(inflight.begin(), inflight.end(), [](const Entry& a, const Entry& b) {
        return std::pair(a.first->pid(), a.second) < std::pair(b.first->pid(), b.second);
      });
    }
    ar.seq(inflight, entry);
    ar(t.scan_rr_, t.scan_cursor_, t.scan_period_, t.last_scan_, t.running_);
    ar.seq(t.pending_collapses_, [&](mm::ThpService::PendingCollapse& c) {
      ref(ar, c.as);
      ar(c.token, c.region, c.mapped_small);
    });
    ar.seq(t.pending_merges_, [&](mm::ThpService::PendingMerge& m) {
      ref(ar, m.as);
      ar(m.token, m.region, m.huge_phys);
    });
    ar(t.next_token_);
    ar.pod(t.stats_);
    if constexpr (Ar::kLoad) {
      t.inflight_ = std::set<Entry>(inflight.begin(), inflight.end());
      t.pending_scan_ = sim::EventId{}; // re-armed from the event records
      t.wake_pending_ = sim::EventId{};
    }
  }

  template <class Ar>
  static void io(Ar& ar, core::HpmmapModule& m) {
    ar.pod(m.rng_);
    // A fresh boot with the same config offlines the same ranges from
    // the same forked rng stream; verify instead of trusting.
    ar.expect(m.offlined_, "fresh boot offlined different ranges than the image");
    ar.expect(m.kitten_.zones_.size(), "kitten zone count mismatch");
    for (core::KittenAllocator::ZoneHeap& zh : m.kitten_.zones_) {
      ar.expect(zh.buddies.size(), "kitten heap count mismatch");
      for (mm::BuddyAllocator& b : zh.buddies) {
        io(ar, b);
      }
    }
    ar.pod(m.kitten_.stats_);
    ar.seq(m.contexts_, [&](core::HpmmapModule::ProcessContext& c) {
      ref(ar, c.as);
      io(ar, c.vmas);
      ar(c.mmap_cursor, c.heap_base, c.heap_break, c.live);
    });
    using State = core::PidRegistry::State;
    ar.seq(m.registry_.slots_, [&](core::PidRegistry::Slot& s) {
      ar.enm(s.state, State::kTombstone);
      ar(s.pid, s.context);
      ar.check(s.state != State::kUsed || s.context < m.contexts_.size(),
               "registry names a context the image does not hold");
    });
    ar(m.registry_.size_, m.registry_.tombstones_);
    ar.pod(m.stats_);
  }

  /// Zone-lock and per-CPU IPI-backlog release points, per-mm lock state,
  /// every pcp list's frames in LIFO order, and the contention counters.
  /// A capture taken mid-storm carries future release stamps; restore
  /// must reproduce them exactly or the resumed run's waits diverge.
  template <class Ar>
  static void io(Ar& ar, mm::SmpDomain& s) {
    ar.expect(s.zone_locks_.size(), "smp zone count mismatch");
    for (mm::SimLock& l : s.zone_locks_) {
      ar(l.free_at);
    }
    ar.expect(s.cpu_stall_.size(), "smp core count mismatch");
    for (Cycles& c : s.cpu_stall_) {
      ar(c);
    }
    ar.seq(s.mms_, [&](mm::SmpDomain::MmState& m) {
      ar(m.pid, m.mmap_sem.writer_free_at, m.mmap_sem.readers_free_at,
         m.pending_shootdown_pages);
      ar.pods(m.pt_shards);
    });
    ar.expect(s.pcp_.size(), "smp pcp list count mismatch");
    for (mm::SmpDomain::PcpList& l : s.pcp_) {
      ar(l.frames);
    }
    ar.pod(s.stats_);
  }

  // --- os ------------------------------------------------------------------

  template <class Ar>
  static void io(Ar& ar, os::Scheduler& s) {
    ar.seq(s.threads_, [&](os::Scheduler::Thread& t) { ar(t.core, t.weight, t.gen, t.live); });
    ar(s.free_slots_, s.live_count_, s.pinned_weight_, s.unpinned_weight_);
    if constexpr (Ar::kLoad) {
      s.dirty_ = true; // mutable caches recompute lazily
    }
  }

  template <class Ar>
  static void io(Ar& ar, hw::BandwidthModel& bw) {
    ar.pods(bw.entries_);
    ar(bw.zone_demand_, bw.capacity_, bw.next_id_);
  }

  template <class Ar>
  static void io(Ar& ar, std::unique_ptr<os::Process>& p) {
    Pid pid = p ? p->pid_ : 0;
    std::string name = p ? p->name_ : std::string();
    os::MmPolicy policy = p ? p->policy_ : os::MmPolicy{};
    ar(pid, name);
    ar.enm(policy, os::MmPolicy::kHpmmap);
    if constexpr (Ar::kLoad) {
      p = std::make_unique<os::Process>(pid, std::move(name), policy);
    }
    io(ar, p->as_);
    ar(p->core_, p->sched_.id, p->sched_.gen, p->alive_);
    ar.pod(p->fault_stats_);
  }

  template <class Ar>
  static void io(Ar& ar, os::Node& n) {
    ar.node = &n;
    ar.pod(n.rng_);
    io(ar, n.scheduler_);
    io(ar, n.bw_);
    io(ar, *n.memory_);
    ar.expect(n.hugetlb_ != nullptr, "hugetlb presence mismatch");
    if (n.hugetlb_) {
      io(ar, *n.hugetlb_);
    }
    // Processes before module/THP: both resolve AddressSpace pointers by pid.
    ar.seq(n.processes_, [&](std::unique_ptr<os::Process>& p) { io(ar, p); });
    ar.expect(n.module_ != nullptr, "module presence mismatch");
    if (n.module_) {
      io(ar, *n.module_);
    }
    ar.expect(n.thp_ != nullptr, "thp presence mismatch");
    if (n.thp_) {
      io(ar, *n.thp_);
    }
    ar.expect(n.smp_ != nullptr, "smp presence mismatch");
    if (n.smp_) {
      io(ar, *n.smp_);
    }
    ar(n.next_pid_, n.swapped_out_total_);
    ar.seq(n.anon_lru_, [&](std::pair<os::Process*, Addr>& e) {
      ref(ar, e.first);
      ar(e.second);
    });
    if constexpr (Ar::kLoad) {
      n.kswapd_event_ = sim::EventId{}; // re-armed from the event records
    }
  }

  // --- builds and events ----------------------------------------------------

  template <class Ar>
  static void io(Ar& ar, workloads::KernelBuild& kb) {
    ar.pod(kb.rng_);
    ar.seq(kb.jobs_, [&](workloads::KernelBuild::Job& j) {
      ar.seq(j.blocks, [&](workloads::KernelBuild::Block& b) { ar(b.zone, b.addr, b.order); });
      ar(j.sched.id, j.sched.gen, j.bw.id, j.home, j.phase, j.live);
    });
    ar.pod(kb.stats_);
    ar(kb.running_);
  }

  template <class Ar>
  static void io(Ar& ar, EventRecord& r) {
    ar(r.when, r.seq, r.daemon, r.node_index, r.build_index, r.aux);
    ar.enm(r.kind, EventKind::kBuildStep);
  }

  template <class Ar>
  static void io(Ar& ar, EngineImage& e) {
    ar(e.now, e.next_seq, e.fired, e.cancelled, e.stopped);
  }

  static std::vector<EventRecord> capture_events(const sim::Engine& e,
                                                 const std::vector<os::Node*>& nodes,
                                                 const std::vector<BuildRef>& builds) {
    std::vector<EventRecord> events;
    // A stale handle (fired or cancelled since it was stored) records nothing.
    auto record = [&](sim::EventId id, EventKind kind, std::uint32_t node_index,
                      std::uint32_t build_index, std::uint64_t aux) {
      const std::uint32_t slot = id.slot - 1;
      if (!id.valid() || slot >= e.slots_.size() || e.slots_[slot].gen != id.gen) {
        return;
      }
      for (const sim::Engine::Entry& entry : e.heap_) {
        if (entry.slot == slot && entry.gen == id.gen) {
          events.push_back(EventRecord{entry.when, entry.seq, e.slots_[slot].daemon, kind,
                                       node_index, build_index, aux});
          return;
        }
      }
    };
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const auto ni = static_cast<std::uint32_t>(i);
      os::Node& n = *nodes[i];
      record(n.kswapd_event_, EventKind::kKswapd, ni, 0, 0);
      if (n.thp_) {
        record(n.thp_->pending_scan_, EventKind::kThpScan, ni, 0, 0);
        record(n.thp_->wake_pending_, EventKind::kThpWake, ni, 0, 0);
        for (const mm::ThpService::PendingCollapse& pc : n.thp_->pending_collapses_) {
          record(pc.event, EventKind::kThpCollapse, ni, 0, pc.token);
        }
        for (const mm::ThpService::PendingMerge& pm : n.thp_->pending_merges_) {
          record(pm.event, EventKind::kThpMerge, ni, 0, pm.token);
        }
      }
    }
    for (std::size_t b = 0; b < builds.size(); ++b) {
      const workloads::KernelBuild& kb = *builds[b].build;
      for (std::size_t slot = 0; slot < kb.jobs_.size(); ++slot) {
        const workloads::KernelBuild::Job& j = kb.jobs_[slot];
        record(j.pending, j.live ? EventKind::kBuildStep : EventKind::kBuildSpawn,
               builds[b].node_index, static_cast<std::uint32_t>(b), slot);
      }
    }
    // Every live engine event must have been claimed by an owner above;
    // an unclaimed event would silently vanish from the resumed run.
    HPMMAP_ASSERT(events.size() == e.live_,
                  "snapshot: engine holds events no owner accounted for");
    return events;
  }

  template <class Pending>
  static auto& find_token(std::vector<Pending>& pending, std::uint64_t token,
                          const char* what) {
    const auto it = std::find_if(pending.begin(), pending.end(),
                                 [token](const Pending& p) { return p.token == token; });
    if (it == pending.end()) {
      reject(what);
    }
    return *it;
  }

  static void rearm_events(const std::vector<EventRecord>& events, sim::Engine& e,
                           const std::vector<os::Node*>& nodes,
                           const std::vector<BuildRef>& builds) {
    for (const EventRecord& r : events) {
      const auto arm = [&](auto fn) {
        return schedule_raw(e, r.when, r.seq, r.daemon, std::move(fn));
      };
      if (r.kind == EventKind::kBuildSpawn || r.kind == EventKind::kBuildStep) {
        if (r.build_index >= builds.size()) {
          reject("event names a build the world does not hold");
        }
        workloads::KernelBuild* kb = builds[r.build_index].build;
        if (r.aux >= kb->jobs_.size()) {
          reject("event names a job slot the build does not hold");
        }
        const auto slot = static_cast<std::size_t>(r.aux);
        kb->jobs_[slot].pending = r.kind == EventKind::kBuildSpawn
                                      ? arm([kb, slot] { kb->spawn_job(slot); })
                                      : arm([kb, slot] { kb->job_step(slot); });
        continue;
      }
      if (r.node_index >= nodes.size()) {
        reject("event names a node the world does not hold");
      }
      os::Node* n = nodes[r.node_index];
      if (r.kind == EventKind::kKswapd) {
        n->kswapd_event_ = arm([n] { n->kswapd_tick(); });
        continue;
      }
      mm::ThpService* t = n->thp_.get();
      if (t == nullptr) {
        reject("khugepaged event on a node without THP");
      }
      const std::uint64_t token = r.aux;
      switch (r.kind) {
        case EventKind::kThpScan:
          t->pending_scan_ = arm([t] { t->scan_tick(); });
          break;
        case EventKind::kThpWake:
          t->wake_pending_ = arm([t] { t->wake_tick(); });
          break;
        case EventKind::kThpCollapse:
          find_token(t->pending_collapses_, token, "collapse event without a registry entry")
              .event = arm([t, token] { t->collapse_tick(token); });
          break;
        case EventKind::kThpMerge:
          find_token(t->pending_merges_, token, "merge event without a registry entry").event =
              arm([t, token] { t->finish_merge(token); });
          break;
        default:
          break;
      }
    }
  }

  // --- per-run context -----------------------------------------------------

  template <class Ar>
  static void io(Ar& ar, trace::FlightRecorder& rec) {
    // Event names and string arguments point into the binary: each
    // distinct string is written once, events name it by index (0 =
    // none), and load interns each once.
    std::vector<std::string> table;
    std::unordered_map<std::string_view, std::uint32_t> index;
    if constexpr (!Ar::kLoad) {
      const auto add = [&](const char* s) {
        if (s != nullptr && index.emplace(s, table.size() + 1).second) {
          table.emplace_back(s);
        }
      };
      for (const trace::Event& e : rec.ring_) {
        add(e.event_name);
        for (const trace::Arg& a : e.args) {
          add(a.name);
          if (a.kind == trace::Arg::Kind::kStr) {
            add(a.value.str);
          }
        }
      }
    }
    ar(table);
    std::vector<const char*> interned{nullptr};
    if constexpr (Ar::kLoad) {
      for (const std::string& s : table) {
        interned.push_back(intern(s));
      }
    }
    const auto name = [&](const char*& s) {
      std::uint32_t i = 0;
      if constexpr (!Ar::kLoad) {
        i = s != nullptr ? index.at(s) : 0;
      }
      ar(i);
      if constexpr (Ar::kLoad) {
        ar.check(i < interned.size(), "trace name index out of range");
        s = interned[i];
      }
    };
    ar(rec.capacity_, rec.head_, rec.dropped_, rec.recorded_);
    ar.seq(rec.ring_, [&](trace::Event& e) {
      ar(e.ts, e.dur, e.pid, e.core, e.span, e.arg_count);
      ar.check(e.arg_count <= trace::Event::kMaxArgs, "trace event argument count out of range");
      name(e.event_name);
      ar.enm(e.cat, [](trace::Category c) {
        const auto bit = static_cast<std::uint32_t>(c);
        return std::has_single_bit(bit) && (bit & trace::kAllCategories) != 0;
      });
      ar.enm(e.phase, [](trace::Phase p) {
        return p == trace::Phase::kComplete || p == trace::Phase::kInstant ||
               p == trace::Phase::kCounter;
      });
      for (trace::Arg& a : e.args) {
        name(a.name);
        ar.enm(a.kind, trace::Arg::Kind::kStr);
        switch (a.kind) {
          case trace::Arg::Kind::kNone:
            break;
          case trace::Arg::Kind::kU64:
            ar(a.value.u64);
            break;
          case trace::Arg::Kind::kF64:
            ar(a.value.f64);
            break;
          case trace::Arg::Kind::kStr:
            name(a.value.str);
            break;
        }
      }
    });
    ar.check(rec.capacity_ > 0 && rec.ring_.size() <= rec.capacity_ &&
                 rec.head_ < rec.capacity_,
             "trace ring out of range");
  }

  template <class Ar>
  static void io(Ar& ar, trace::MetricRegistry& reg) {
    ar.map(reg.counters_, [&](std::uint64_t& v) { ar(v); });
    ar.map(reg.histograms_, [&](trace::Histogram& h) { ar.pod(h); });
  }

  /// on_fire_ is deliberately untouched: the resumed harness installs
  /// its own audit hook before restore.
  template <class Ar>
  static void io(Ar& ar, verify::FaultInjector& inj) {
    ar.pod(inj.plan_);
    ar.pod(inj.stats_);
    ar.pod(inj.rng_);
    ar(inj.armed_);
  }

  // --- top level ------------------------------------------------------------

  /// The whole image, in order. Save writes `fp`; Load rejects an image
  /// whose fingerprint differs from `fp` (the target's) before it
  /// touches anything.
  template <class Ar>
  static void world(Ar& ar, const Fingerprint& fp, EngineImage& engine,
                    std::vector<EventRecord>& events, const std::vector<os::Node*>& nodes,
                    const std::vector<BuildRef>& builds) {
    ar.expect(fp, "image does not match the target world's layout");
    io(ar, engine);
    for (os::Node* n : nodes) {
      io(ar, *n);
    }
    for (const BuildRef& b : builds) {
      io(ar, *b.build);
    }
    ar.seq(events, [&](EventRecord& r) { io(ar, r); });
    io(ar, trace::recorder());
    io(ar, trace::metrics());
    io(ar, verify::injector());
  }

  static WorldImage capture(sim::Engine& e, const std::vector<os::Node*>& nodes,
                            const std::vector<BuildRef>& builds) {
    WorldImage img{fingerprint(nodes, builds),
                   EngineImage{e.now_, e.next_seq_, e.fired_, e.cancelled_, e.stopped_},
                   {}};
    std::vector<EventRecord> events = capture_events(e, nodes, builds);
    Save sizer(nullptr);
    world(sizer, img.fingerprint, img.engine, events, nodes, builds);
    img.bytes.reserve(sizer.size());
    Save ar(&img.bytes);
    world(ar, img.fingerprint, img.engine, events, nodes, builds);
    return img;
  }

  static void restore(const WorldImage& img, sim::Engine& e,
                      const std::vector<os::Node*>& nodes,
                      const std::vector<BuildRef>& builds) {
    Load ar(img.bytes);
    EngineImage engine;
    std::vector<EventRecord> events;
    world(ar, fingerprint(nodes, builds), engine, events, nodes, builds);
    ar.finish();
    clear_events(e);
    rearm_events(events, e, nodes, builds);
    e.now_ = engine.now;
    e.next_seq_ = engine.next_seq;
    e.fired_ = engine.fired;
    e.cancelled_ = engine.cancelled;
    e.stopped_ = engine.stopped;
  }
};

WorldImage capture_world(sim::Engine& engine, const std::vector<os::Node*>& nodes,
                         const std::vector<BuildRef>& builds) {
  return Access::capture(engine, nodes, builds);
}

void restore_world(const WorldImage& image, sim::Engine& engine,
                   const std::vector<os::Node*>& nodes,
                   const std::vector<BuildRef>& builds) {
  Access::restore(image, engine, nodes, builds);
}

bool step_one(sim::Engine& engine) { return Access::step(engine); }

// --- image memory and the image file ----------------------------------------

namespace {

// glibc serves blocks under 32 MiB (its largest mmap threshold) from
// the heap, which recycles them for images and worlds alike. Larger
// blocks it maps afresh on every allocation, so those are kept here,
// sizes rounded up to whole MiB so images of one world at different
// instants share them.
constexpr std::size_t kPooledMin = std::size_t{32} << 20;
constexpr std::size_t kGranule = std::size_t{1} << 20;
/// A captured and a loaded image of one world; older blocks are freed.
constexpr std::size_t kPooledBlocks = 2;

struct BlockPool {
  std::mutex mu;
  std::deque<std::pair<char*, std::size_t>> blocks;
};

BlockPool& block_pool() {
  static auto* pool = new BlockPool();
  return *pool;
}

std::size_t block_size(std::size_t n) {
  return n < kPooledMin ? n : (n + kGranule - 1) / kGranule * kGranule;
}

} // namespace

char* ImageAllocator::allocate(std::size_t n) {
  const std::size_t size = block_size(n);
  if (size >= kPooledMin) {
    BlockPool& pool = block_pool();
    const std::lock_guard<std::mutex> lock(pool.mu);
    for (auto it = pool.blocks.begin(); it != pool.blocks.end(); ++it) {
      if (it->second == size) {
        char* p = it->first;
        pool.blocks.erase(it);
        return p;
      }
    }
  }
  return std::allocator<char>{}.allocate(size);
}

void ImageAllocator::deallocate(char* p, std::size_t n) noexcept {
  std::pair<char*, std::size_t> freed{p, block_size(n)};
  if (freed.second >= kPooledMin) {
    BlockPool& pool = block_pool();
    const std::lock_guard<std::mutex> lock(pool.mu);
    pool.blocks.push_back(freed);
    if (pool.blocks.size() <= kPooledBlocks) {
      return;
    }
    freed = pool.blocks.front(); // evict the oldest
    pool.blocks.pop_front();
  }
  std::allocator<char>{}.deallocate(freed.first, freed.second);
}

std::uint64_t digest(std::string_view payload) noexcept {
  constexpr std::uint64_t kPrime = 0x100000001b3ull;
  std::uint64_t h = 0xcbf29ce484222325ull;
  std::size_t i = 0;
  for (; i + 8 <= payload.size(); i += 8) {
    std::uint64_t word;
    std::memcpy(&word, payload.data() + i, 8);
    h = (h ^ word) * kPrime;
  }
  for (; i < payload.size(); ++i) {
    h = (h ^ static_cast<unsigned char>(payload[i])) * kPrime;
  }
  return h;
}

namespace {

struct FileHeader {
  std::uint32_t magic = kMagic;
  std::uint32_t version = kVersion;
  std::uint64_t length = 0;
  std::uint64_t digest = 0;
};
static_assert(sizeof(FileHeader) == kFileHeaderBytes);

} // namespace

void save(const WorldImage& image, const std::string& path) {
  const FileHeader header{kMagic, kVersion, image.bytes.size(), digest(image.bytes)};
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  HPMMAP_ASSERT(out.good(), "snapshot: cannot open output file");
  out.write(reinterpret_cast<const char*>(&header), sizeof header);
  out.write(image.bytes.data(), static_cast<std::streamsize>(image.bytes.size()));
  HPMMAP_ASSERT(out.good(), "snapshot: write failed");
}

WorldImage load(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    reject("cannot open image file");
  }
  const auto file_size = static_cast<std::uint64_t>(in.tellg());
  FileHeader header;
  if (file_size < sizeof header ||
      !in.seekg(0).read(reinterpret_cast<char*>(&header), sizeof header)) {
    reject("image file shorter than its header");
  }
  if (header.magic != kMagic) {
    reject("not a snapshot image");
  }
  if (header.version != kVersion) {
    reject("unsupported image version");
  }
  if (header.length != file_size - sizeof header) {
    reject("image length does not match the file size");
  }
  WorldImage image;
  image.bytes.resize(static_cast<std::size_t>(header.length));
  if (!in.read(image.bytes.data(), static_cast<std::streamsize>(header.length))) {
    reject("cannot read image file");
  }
  if (digest(image.bytes) != header.digest) {
    reject("image digest mismatch");
  }
  Load ar(image.bytes);
  ar(image.fingerprint);
  Access::io(ar, image.engine);
  return image;
}

} // namespace hpmmap::snapshot
