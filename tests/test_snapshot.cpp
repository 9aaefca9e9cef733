// Snapshot/restore correctness (DESIGN.md §12): a restored world is the
// captured world. The headline checks: MmAuditor structural equality on
// restore, byte-identical procfs renderings across a capture/restore
// round-trip, straight runs vs snapshot-resumed runs byte-identical for
// all three managers (trace streams included), save/load file
// round-trips, the amortized-aging sweep matching the plain batch bit
// for bit, and deterministic time-travel: restore the capture preceding
// a flight-recorder anomaly and single-step back to the exact event.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "harness/batch.hpp"
#include "harness/experiment.hpp"
#include "introspect/procfs.hpp"
#include "linux_mm/hugetlbfs.hpp"
#include "linux_mm/page_cache.hpp"
#include "linux_mm/smp.hpp"
#include "os/node.hpp"
#include "sim/engine.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"
#include "verify/audit.hpp"
#include "workloads/kernel_build.hpp"

namespace hpmmap {
namespace {

harness::SingleNodeRunConfig quick(const std::string& app, harness::Manager mgr,
                                   workloads::CommodityProfile commodity,
                                   std::uint32_t cores) {
  harness::SingleNodeRunConfig cfg;
  cfg.app = app;
  cfg.manager = mgr;
  cfg.commodity = commodity;
  cfg.app_cores = cores;
  cfg.seed = 7;
  cfg.footprint_scale = 0.08;
  cfg.duration_scale = 0.05;
  return cfg;
}

void expect_args_equal(const trace::Event& a, const trace::Event& b, std::size_t i) {
  ASSERT_EQ(a.arg_count, b.arg_count) << "event " << i;
  for (std::uint8_t k = 0; k < a.arg_count; ++k) {
    const trace::Arg& x = a.args[k];
    const trace::Arg& y = b.args[k];
    ASSERT_STREQ(x.name, y.name) << "event " << i << " arg " << int{k};
    ASSERT_EQ(static_cast<int>(x.kind), static_cast<int>(y.kind)) << "event " << i;
    switch (x.kind) {
      case trace::Arg::Kind::kNone: break;
      case trace::Arg::Kind::kU64:
        EXPECT_EQ(x.value.u64, y.value.u64) << "event " << i << " arg " << int{k};
        break;
      case trace::Arg::Kind::kF64:
        EXPECT_EQ(x.value.f64, y.value.f64) << "event " << i << " arg " << int{k};
        break;
      case trace::Arg::Kind::kStr:
        EXPECT_STREQ(x.value.str, y.value.str) << "event " << i << " arg " << int{k};
        break;
    }
  }
}

void expect_events_equal(const std::vector<trace::Event>& a,
                         const std::vector<trace::Event>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ts, b[i].ts) << "event " << i;
    EXPECT_EQ(a[i].dur, b[i].dur) << "event " << i;
    EXPECT_EQ(a[i].name(), b[i].name()) << "event " << i;
    EXPECT_EQ(static_cast<std::uint32_t>(a[i].cat), static_cast<std::uint32_t>(b[i].cat));
    EXPECT_EQ(static_cast<char>(a[i].phase), static_cast<char>(b[i].phase));
    EXPECT_EQ(a[i].pid, b[i].pid) << "event " << i;
    EXPECT_EQ(a[i].core, b[i].core) << "event " << i;
    expect_args_equal(a[i], b[i], i);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

/// Full-result equality: every field exact, doubles compared with ==.
/// The resumed run must replay the straight run's event stream, so
/// nothing — not even a stdev in the last ulp — may differ.
void expect_run_equal(const harness::RunResult& a, const harness::RunResult& b) {
  EXPECT_EQ(a.runtime_seconds, b.runtime_seconds);
  EXPECT_EQ(a.clock_hz, b.clock_hz);
  for (std::size_t k = 0; k < mm::kFaultKindCount; ++k) {
    EXPECT_EQ(a.faults.count[k], b.faults.count[k]) << "kind " << k;
    EXPECT_EQ(a.faults.total_cycles[k], b.faults.total_cycles[k]) << "kind " << k;
    EXPECT_EQ(a.by_kind_summaries[k].total_faults, b.by_kind_summaries[k].total_faults);
    EXPECT_EQ(a.by_kind_summaries[k].avg_cycles, b.by_kind_summaries[k].avg_cycles);
    EXPECT_EQ(a.by_kind_summaries[k].stdev_cycles, b.by_kind_summaries[k].stdev_cycles);
  }
  EXPECT_EQ(a.trace_dropped, b.trace_dropped);
  EXPECT_EQ(a.app_pids, b.app_pids);
  EXPECT_EQ(a.trace_t0, b.trace_t0);
  EXPECT_EQ(a.thp_merges, b.thp_merges);
  EXPECT_EQ(a.hpmmap_spurious_faults, b.hpmmap_spurious_faults);
  EXPECT_EQ(a.events_fired, b.events_fired);
  for (std::size_t i = 0; i < verify::kInjectPointCount; ++i) {
    EXPECT_EQ(a.injected[i].calls, b.injected[i].calls) << "point " << i;
    EXPECT_EQ(a.injected[i].fired, b.injected[i].fired) << "point " << i;
  }
  EXPECT_EQ(a.audit_checks, b.audit_checks);
  EXPECT_EQ(a.audit_violations, b.audit_violations);
  EXPECT_EQ(a.audit_report, b.audit_report);
  EXPECT_EQ(a.thp_fault_fallbacks, b.thp_fault_fallbacks);
  EXPECT_EQ(a.thp_merges_aborted, b.thp_merges_aborted);
  EXPECT_EQ(a.hugetlb_pool_exhausted, b.hugetlb_pool_exhausted);
  EXPECT_EQ(a.procfs_text, b.procfs_text);
  expect_events_equal(a.events, b.events);
}

void expect_points_equal(const std::vector<harness::SeriesPoint>& a,
                         const std::vector<harness::SeriesPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].mean_seconds, b[i].mean_seconds) << "point " << i;
    EXPECT_EQ(a[i].stdev_seconds, b[i].stdev_seconds) << "point " << i;
    EXPECT_EQ(a[i].trials, b[i].trials) << "point " << i;
    EXPECT_EQ(a[i].events, b[i].events) << "point " << i;
    EXPECT_EQ(a[i].fault_counts, b[i].fault_counts) << "point " << i;
    EXPECT_EQ(a[i].fault_cycles, b[i].fault_cycles) << "point " << i;
  }
}

// --- straight run vs snapshot-resumed run, all three managers -------------

class SnapshotManagers : public ::testing::TestWithParam<harness::Manager> {};

TEST_P(SnapshotManagers, ResumedRunIsByteIdenticalToStraightRun) {
  const harness::SingleNodeRunConfig cfg =
      quick("miniMD", GetParam(), workloads::profile_a(2), 2);
  const harness::RunResult straight = harness::run_single_node(cfg);
  const snapshot::WorldImage image = harness::capture_single_node(cfg);
  const harness::RunResult resumed = harness::run_single_node(cfg, image);
  expect_run_equal(straight, resumed);
}

INSTANTIATE_TEST_SUITE_P(Managers, SnapshotManagers,
                         ::testing::Values(harness::Manager::kThp,
                                           harness::Manager::kHugetlbfs,
                                           harness::Manager::kHpmmap));

TEST(SnapshotResume, TracedRunReplaysTheExactEventStream) {
  harness::SingleNodeRunConfig cfg =
      quick("HPCCG", harness::Manager::kThp, workloads::profile_a(2), 2);
  cfg.trace.categories = static_cast<std::uint32_t>(trace::Category::kFault) |
                         static_cast<std::uint32_t>(trace::Category::kThp);
  cfg.introspect.procfs_dump = true;
  const harness::RunResult straight = harness::run_single_node(cfg);
  const snapshot::WorldImage image = harness::capture_single_node(cfg);
  const harness::RunResult resumed = harness::run_single_node(cfg, image);
  ASSERT_FALSE(straight.events.empty());
  expect_run_equal(straight, resumed);
}

TEST(SnapshotResume, OneCaptureFansOutToDifferentMeasurementConfigs) {
  // The amortization contract: app, app_cores and duration_scale may
  // differ between capture and resume; each resumed run still matches
  // its own straight run exactly.
  harness::SingleNodeRunConfig base =
      quick("miniMD", harness::Manager::kHpmmap, workloads::profile_a(2), 2);
  const snapshot::WorldImage image = harness::capture_single_node(base);
  harness::SingleNodeRunConfig other = base;
  other.app = "HPCCG";
  other.app_cores = 4;
  other.duration_scale = 0.03;
  expect_run_equal(harness::run_single_node(base), harness::run_single_node(base, image));
  expect_run_equal(harness::run_single_node(other),
                   harness::run_single_node(other, image));
}

TEST(SnapshotResume, ScalingRunResumesExactly) {
  harness::ScalingRunConfig cfg;
  cfg.app = "HPCCG";
  cfg.manager = harness::Manager::kThp;
  cfg.commodity = workloads::profile_c();
  cfg.nodes = 2;
  cfg.ranks_per_node = 2;
  cfg.seed = 3;
  cfg.footprint_scale = 0.08;
  cfg.duration_scale = 0.05;
  const harness::RunResult straight = harness::run_scaling(cfg);
  const snapshot::WorldImage image = harness::capture_scaling(cfg);
  const harness::RunResult resumed = harness::run_scaling(cfg, image);
  expect_run_equal(straight, resumed);
}

// --- node-level structural equality ---------------------------------------

os::NodeConfig node_config(std::uint64_t seed, bool aged) {
  os::NodeConfig cfg;
  cfg.machine = hw::dell_r415();
  cfg.machine.ram_bytes = 4 * GiB;
  cfg.seed = seed;
  cfg.aged_boot = aged;
  core::ModuleConfig mod;
  mod.offline_bytes_per_zone = 512 * MiB;
  cfg.hpmmap = mod;
  cfg.hugetlb_pool_per_zone = 128 * MiB;
  return cfg;
}

/// Boot an aged node, churn it through one process per policy (every
/// policy by default), and let the daemons run — the state a capture
/// should preserve.
void churn(sim::Engine& engine, os::Node& node,
           std::vector<os::MmPolicy> policies = {os::MmPolicy::kLinuxThp,
                                                 os::MmPolicy::kLinuxPlain,
                                                 os::MmPolicy::kHugetlbfs,
                                                 os::MmPolicy::kHpmmap}) {
  Rng rng(99);
  std::vector<os::Process*> procs;
  for (std::size_t i = 0; i < policies.size(); ++i) {
    procs.push_back(&node.spawn("churn" + std::to_string(i), policies[i],
                                static_cast<std::int32_t>(i % 8), 1.0,
                                mm::AddressSpace::ZonePolicy::kSingle, 0));
  }
  for (int round = 0; round < 12; ++round) {
    for (os::Process* p : procs) {
      const std::uint64_t len = align_up(rng.uniform(1, 16) * 512 * KiB, kLargePageSize);
      const auto out = node.sys_mmap(*p, len, kProtRW, os::Node::Segment::kHeapData);
      if (out.err == Errno::kOk) {
        (void)node.touch_range(*p, Range{out.addr, out.addr + len});
      }
    }
    engine.run_until(engine.now() + 20'000'000);
  }
  node.exit_process(*procs[1]); // leave a dead pid behind
  engine.run_until(engine.now() + 200'000'000);
}

TEST(SnapshotNode, RestoredNodePassesAuditAndRendersIdenticalProcfs) {
  sim::Engine engine;
  os::Node node(engine, node_config(11, /*aged=*/true));
  churn(engine, node);

  const std::string before = introspect::procfs_dump(node);
  const snapshot::WorldImage image = snapshot::capture_world(engine, {&node});
  // Capture reads only: the live node renders the same bytes afterwards.
  EXPECT_EQ(introspect::procfs_dump(node), before);
  verify::MmAuditor source_auditor(node);
  const verify::AuditReport source_report = source_auditor.run();
  ASSERT_TRUE(source_report.ok()) << source_report.summary();

  // Restore into a fresh, *non-aged* boot — the harness resume path.
  sim::Engine engine2;
  os::Node node2(engine2, node_config(11, /*aged=*/false));
  snapshot::restore_world(image, engine2, {&node2});

  EXPECT_EQ(engine2.now(), engine.now());
  EXPECT_EQ(introspect::procfs_dump(node2), before);
  verify::MmAuditor auditor(node2);
  const verify::AuditReport report = auditor.run();
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.checks, source_report.checks);
}

TEST(SnapshotNode, SaveLoadRoundTripsTheImageFile) {
  sim::Engine engine;
  os::Node node(engine, node_config(23, /*aged=*/true));
  churn(engine, node);
  const std::string before = introspect::procfs_dump(node);
  const snapshot::WorldImage image = snapshot::capture_world(engine, {&node});

  const std::string path = "/tmp/hpmmap_test_snapshot.img";
  snapshot::save(image, path);
  const snapshot::WorldImage loaded = snapshot::load(path);
  std::remove(path.c_str());

  sim::Engine engine2;
  os::Node node2(engine2, node_config(23, /*aged=*/false));
  snapshot::restore_world(loaded, engine2, {&node2});
  EXPECT_EQ(introspect::procfs_dump(node2), before);
  verify::MmAuditor auditor(node2);
  const verify::AuditReport report = auditor.run();
  EXPECT_TRUE(report.ok()) << report.summary();

  // The restored world keeps evolving identically: run both engines
  // forward and compare the rendering again.
  engine.run_until(engine.now() + 500'000'000);
  engine2.run_until(engine2.now() + 500'000'000);
  EXPECT_EQ(introspect::procfs_dump(node2), introspect::procfs_dump(node));
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Rewrite an image file's length and digest to match its payload, so a
/// mutation inside the payload reaches the decoder instead of stopping
/// at the digest check.
void reseal(std::string& bytes) {
  const std::uint64_t length = bytes.size() - snapshot::kFileHeaderBytes;
  const std::uint64_t sum =
      snapshot::digest(std::string_view(bytes).substr(snapshot::kFileHeaderBytes));
  std::memcpy(bytes.data() + 8, &length, sizeof length);
  std::memcpy(bytes.data() + 16, &sum, sizeof sum);
}

TEST(SnapshotNodeDeathTest, HugeStringLengthIsATruncatedImageNotAnOutOfBoundsRead) {
  sim::Engine engine;
  os::Node node(engine, node_config(23, /*aged=*/false));
  const std::string path =
      (std::filesystem::temp_directory_path() / "hpmmap_test_snapshot_overflow.img").string();
  snapshot::save(snapshot::capture_world(engine, {&node}), path);

  // Layout: 24-byte header (u32 magic, u32 version, u64 length, u64
  // digest), then the payload: u64 fingerprint count, then the first
  // key's u64 length. A length of 2^64-1 used to wrap the bounds check.
  // Resealing keeps the digest from catching it, so the count check
  // against the remaining bytes is what must reject it.
  std::string bytes = file_bytes(path);
  ASSERT_GT(bytes.size(), 40u);
  ASSERT_NE(bytes.substr(24, 8), std::string(8, '\0')) << "fingerprint must have a key";
  bytes.replace(32, 8, std::string(8, '\xff'));
  reseal(bytes);
  write_file(path, bytes);
  EXPECT_THROW((void)snapshot::load(path), snapshot::LoadError);
  std::remove(path.c_str());
}

// --- per-CPU SMP state ------------------------------------------------------
//
// An SmpDomain's state is all release stamps and per-CPU frame lists; a
// capture taken mid-contention (locks held into the future, pcp lists
// warm, shootdown IPIs deferred) must round-trip exactly, or the resumed
// run's waits diverge from the uninterrupted run's. Byte-identity of the
// images is the strongest equality the format offers, so the checks
// below compare image bytes.

os::NodeConfig smp_node_config(std::uint64_t seed) {
  os::NodeConfig cfg;
  cfg.machine = hw::dell_r415();
  cfg.machine.ram_bytes = 4 * GiB;
  cfg.seed = seed;
  cfg.aged_boot = false;
  cfg.thp_enabled = false;
  mm::SmpConfig smp;
  smp.cores = 4;
  cfg.smp = smp;
  return cfg;
}

/// One round of four-thread churn on a shared process: each core faults
/// its own quarter of a fresh slab (alloc_small refills the pcp lists),
/// then the previous round's slab is unmapped (free_small drains the
/// lists through their watermark, note_unmap leaves deferred shootdown
/// pages pending). Pure syscalls, no armed events — the same sequence
/// applies identically to an original and a restored world.
void smp_churn_round(os::Node& node, os::Process& p, std::vector<Addr>& slabs, int round) {
  const auto out = node.sys_mmap(p, 4 * MiB, kProtRW, os::Node::Segment::kHeapData,
                                 round % 4);
  ASSERT_EQ(out.err, Errno::kOk);
  for (std::int32_t c = 0; c < 4; ++c) {
    const Addr begin = out.addr + static_cast<Addr>(c) * MiB;
    (void)node.touch_range(p, Range{begin, begin + 1 * MiB}, c);
  }
  slabs.push_back(out.addr);
  if (slabs.size() >= 2) {
    const Addr victim = slabs[slabs.size() - 2];
    (void)node.sys_munmap(p, victim, 4 * MiB, (round + 1) % 4);
    slabs.erase(slabs.end() - 2);
  }
}

TEST(SnapshotSmp, MidContentionCaptureRoundTripsByteIdentical) {
  sim::Engine engine;
  os::Node node(engine, smp_node_config(41));
  os::Process& p = node.spawn("smp", os::MmPolicy::kLinuxPlain, 0, 1.0,
                              mm::AddressSpace::ZonePolicy::kSingle, 0);
  std::vector<Addr> slabs;
  for (int round = 0; round < 6; ++round) {
    smp_churn_round(node, p, slabs, round);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  // The capture must land mid-contention: locks were fought over, frames
  // are parked per-CPU, and a shootdown batch is still deferred.
  const mm::SmpDomain& smp = *node.smp();
  ASSERT_GT(smp.stats().total_lock_wait(), 0u);
  ASSERT_GT(smp.pcp_cached_bytes(0), 0u);

  const snapshot::WorldImage image = snapshot::capture_world(engine, {&node});
  const std::string path = "/tmp/hpmmap_test_smp.img";
  snapshot::save(image, path);
  const snapshot::WorldImage loaded = snapshot::load(path);
  std::remove(path.c_str());

  sim::Engine engine2;
  os::Node node2(engine2, smp_node_config(41));
  snapshot::restore_world(loaded, engine2, {&node2});

  // Re-capturing the restored world yields the same bytes: every release
  // stamp, list entry and counter survived the round trip. (The audit
  // comes after the capture — it bumps telemetry counters that the
  // snapshot captures.)
  EXPECT_TRUE(snapshot::capture_world(engine2, {&node2}).bytes == image.bytes);
  const verify::AuditReport report = verify::MmAuditor(node2).run();
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(SnapshotSmp, CaptureCyclesInterleavedWithPcpChurnStayExact) {
  // Stress walk: capture between every churn round (each round refills
  // and drains pcp lists and moves the shootdown backlog), restore each
  // capture into a fresh world, and drive BOTH worlds through the next
  // round. The restored world must keep producing the original's exact
  // bytes — proving the captured SMP state actually steers future
  // behavior rather than merely surviving encoding.
  sim::Engine engine;
  os::Node node(engine, smp_node_config(43));
  os::Process& p = node.spawn("smp", os::MmPolicy::kLinuxPlain, 0, 1.0,
                              mm::AddressSpace::ZonePolicy::kSingle, 0);
  std::vector<Addr> slabs;
  for (int round = 0; round < 5; ++round) {
    smp_churn_round(node, p, slabs, round);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
    const snapshot::WorldImage image = snapshot::capture_world(engine, {&node});

    sim::Engine engine2;
    os::Node node2(engine2, smp_node_config(43));
    snapshot::restore_world(image, engine2, {&node2});
    os::Process* p2 = nullptr;
    node2.for_each_process([&](const os::Process& q) {
      if (q.pid() == p.pid()) {
        p2 = const_cast<os::Process*>(&q);
      }
    });
    ASSERT_NE(p2, nullptr);

    // Same next round on both worlds, then compare their captures.
    std::vector<Addr> slabs2 = slabs;
    smp_churn_round(node, p, slabs, round + 1);
    smp_churn_round(node2, *p2, slabs2, round + 1);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
    ASSERT_TRUE(snapshot::capture_world(engine, {&node}).bytes ==
                snapshot::capture_world(engine2, {&node2}).bytes)
        << "diverged after round " << round;

    // The walk continues on the original only; restored worlds are
    // discarded, so the original now leads by one round.
  }
}

// --- recapture idempotence ---------------------------------------------------
//
// Capture, restore into a fresh boot, capture again: the two images must
// be the same bytes, so no field is lost, reordered or re-derived on the
// way through. One node per memory manager, each beside a kernel build
// so build jobs and their armed events are in the image too. (The SMP
// mid-contention case is SnapshotSmp.MidContentionCaptureRoundTripsByteIdentical.)

os::NodeConfig manager_node_config(os::MmPolicy policy, bool aged) {
  os::NodeConfig cfg;
  cfg.machine = hw::dell_r415();
  cfg.machine.ram_bytes = 4 * GiB;
  cfg.seed = 17;
  cfg.aged_boot = aged;
  cfg.thp_enabled = policy == os::MmPolicy::kLinuxThp;
  if (policy == os::MmPolicy::kHugetlbfs) {
    cfg.hugetlb_pool_per_zone = 128 * MiB;
  }
  if (policy == os::MmPolicy::kHpmmap) {
    core::ModuleConfig mod;
    mod.offline_bytes_per_zone = 512 * MiB;
    cfg.hpmmap = mod;
  }
  return cfg;
}

workloads::KernelBuildConfig small_build() {
  workloads::KernelBuildConfig bc;
  bc.jobs = 2;
  bc.mean_job_bytes = 16 * MiB;
  bc.cache_bytes_per_job = 8 * MiB;
  return bc;
}

class SnapshotRecapture : public ::testing::TestWithParam<os::MmPolicy> {};

TEST_P(SnapshotRecapture, RestoredWorldRecapturesToTheSameBytes) {
  const os::MmPolicy policy = GetParam();
  sim::Engine engine;
  os::Node node(engine, manager_node_config(policy, /*aged=*/true));
  workloads::KernelBuild build(node, small_build(), Rng(5));
  build.start();
  churn(engine, node, {policy, policy, os::MmPolicy::kLinuxPlain});
  const snapshot::WorldImage image = snapshot::capture_world(engine, {&node}, {{&build, 0}});

  sim::Engine engine2;
  os::Node node2(engine2, manager_node_config(policy, /*aged=*/false));
  workloads::KernelBuild build2(node2, small_build(), Rng(5));
  snapshot::restore_world(image, engine2, {&node2}, {{&build2, 0}});
  EXPECT_EQ(engine2.pending_events(), engine.pending_events());
  EXPECT_TRUE(snapshot::capture_world(engine2, {&node2}, {{&build2, 0}}).bytes == image.bytes);
}

INSTANTIATE_TEST_SUITE_P(Managers, SnapshotRecapture,
                         ::testing::Values(os::MmPolicy::kLinuxThp, os::MmPolicy::kHugetlbfs,
                                           os::MmPolicy::kHpmmap));

// --- corrupt image files -------------------------------------------------------
//
// Mutation fuzz with a fixed seed over one saved aged image: bit flips,
// truncations, appended bytes and inflated length fields. Each mutation
// is loaded twice. As written, the digest or framing must reject it.
// Resealed with a correct length and digest, it reaches the decoder,
// which must either restore it or throw LoadError (always, for a
// truncation or appended bytes): never abort, never bad_alloc, never
// read out of bounds (the ASan/UBSan job runs this too).

TEST(SnapshotFuzz, MutatedImagesAreRejectedOrRestoredNeverCrash) {
  os::NodeConfig cfg = node_config(29, /*aged=*/true);
  cfg.machine.ram_bytes = 1 * GiB;
  cfg.hpmmap->offline_bytes_per_zone = 128 * MiB;
  cfg.hugetlb_pool_per_zone = 32 * MiB;
  sim::Engine engine;
  os::Node node(engine, cfg);
  workloads::KernelBuild build(node, small_build(), Rng(9));
  build.start();
  churn(engine, node);
  const snapshot::WorldImage pristine = snapshot::capture_world(engine, {&node}, {{&build, 0}});
  const std::string path =
      (std::filesystem::temp_directory_path() / "hpmmap_test_snapshot_fuzz.img").string();
  snapshot::save(pristine, path);
  const std::string good = file_bytes(path);
  ASSERT_GT(good.size(), 64u);

  cfg.aged_boot = false;
  sim::Engine engine2;
  os::Node node2(engine2, cfg);
  workloads::KernelBuild build2(node2, small_build(), Rng(9));
  Rng rng(2024);
  int restored = 0;
  int rejected = 0;
  for (int i = 0; i < 200; ++i) {
    std::string bytes = good;
    const std::uint64_t at = rng.uniform(bytes.size());
    switch (i % 4) {
      case 0: // one flipped bit anywhere, header included
        bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng.uniform(8)));
        break;
      case 1: // truncated, but keeping the header
        bytes.resize(snapshot::kFileHeaderBytes + rng.uniform(bytes.size() - 24));
        break;
      case 2: // appended garbage
        bytes.append(1 + rng.uniform(64), static_cast<char>(rng.uniform(256)));
        break;
      case 3: { // an inflated 64-bit length: the header's, the first two
                // payload counts, or any aligned payload word
        static constexpr std::uint64_t kHuge[] = {~std::uint64_t{0}, std::uint64_t{1} << 62,
                                                  std::uint64_t{1} << 32, 1u << 24};
        const std::uint64_t value = kHuge[rng.uniform(4)];
        const std::uint64_t pick = rng.uniform(4);
        const std::uint64_t offset = pick == 0   ? 8
                                     : pick == 1 ? 24
                                     : pick == 2 ? 32
                                                 : 24 + (at - at % 8) % (bytes.size() - 32);
        std::memcpy(bytes.data() + offset, &value, sizeof value);
        break;
      }
    }
    write_file(path, bytes);
    EXPECT_THROW((void)snapshot::load(path), snapshot::LoadError) << "raw mutation " << i;

    reseal(bytes);
    write_file(path, bytes);
    try {
      snapshot::restore_world(snapshot::load(path), engine2, {&node2}, {{&build2, 0}});
      ++restored;
      // Missing or extra bytes can never decode.
      EXPECT_TRUE(i % 4 == 0 || i % 4 == 3) << "resealed mutation " << i << " restored";
    } catch (const snapshot::LoadError&) {
      ++rejected;
    }
    // A failed restore leaves the world unusable; a good image makes it
    // whole again (and safe to destroy).
    snapshot::restore_world(pristine, engine2, {&node2}, {{&build2, 0}});
  }
  std::remove(path.c_str());
  EXPECT_GT(rejected, 0);
  EXPECT_GT(restored, 0);
  EXPECT_TRUE(snapshot::capture_world(engine2, {&node2}, {{&build2, 0}}).bytes ==
              pristine.bytes);
}

/// The image offset of an encoded frame-index sequence: its u64 length,
/// then its first (up to four) u32 entries. npos when absent.
std::size_t find_frames(const snapshot::Bytes& bytes, const std::vector<std::uint32_t>& seq) {
  std::string pattern(8 + 4 * std::min<std::size_t>(seq.size(), 4), '\0');
  const std::uint64_t n = seq.size();
  std::memcpy(pattern.data(), &n, 8);
  std::memcpy(pattern.data() + 8, seq.data(), pattern.size() - 8);
  return std::string_view(bytes.data(), bytes.size()).find(pattern);
}

// An LRU or pool-stack entry naming a frame outside its zone's mem_map
// must be refused by restore, not trusted as an index.
TEST(SnapshotFuzz, OutOfRangeLruAndStackIndicesAreRejected) {
  os::NodeConfig cfg = node_config(29, /*aged=*/true);
  cfg.machine.ram_bytes = 1 * GiB;
  cfg.hpmmap->offline_bytes_per_zone = 128 * MiB;
  cfg.hugetlb_pool_per_zone = 32 * MiB;
  sim::Engine engine;
  os::Node node(engine, cfg);
  const hw::MemMap& map = node.memory().buddy(0).mem_map();
  std::vector<std::uint32_t> lru;
  node.memory().cache(0).for_each_lru(
      [&](Addr a, unsigned, bool) { lru.push_back(map.index_of(a)); });
  std::vector<std::uint32_t> stack; // encoded bottom to top
  node.hugetlb()->for_each_pool_page(0, [&](Addr a) { stack.push_back(map.index_of(a)); });
  std::reverse(stack.begin(), stack.end());
  ASSERT_GE(lru.size(), 4u);
  ASSERT_GE(stack.size(), 4u);
  const snapshot::WorldImage pristine = snapshot::capture_world(engine, {&node});

  cfg.aged_boot = false;
  sim::Engine engine2;
  os::Node node2(engine2, cfg);
  const auto frames = static_cast<std::uint32_t>(map.frame_count());
  for (const std::vector<std::uint32_t>* seq : {&lru, &stack}) {
    const std::size_t at = find_frames(pristine.bytes, *seq);
    ASSERT_NE(at, std::string_view::npos);
    for (const std::uint32_t bad : {frames, ~std::uint32_t{0}}) {
      snapshot::WorldImage image = pristine;
      std::memcpy(image.bytes.data() + at + 8 + 4, &bad, sizeof bad); // the second entry
      try {
        snapshot::restore_world(image, engine2, {&node2});
        ADD_FAILURE() << "index " << bad << " restored";
      } catch (const snapshot::LoadError& e) {
        EXPECT_NE(std::string(e.what()).find("frame index out of range"), std::string::npos)
            << e.what();
      }
      snapshot::restore_world(pristine, engine2, {&node2});
    }
  }
  EXPECT_TRUE(snapshot::capture_world(engine2, {&node2}).bytes == pristine.bytes);
}

// --- page-cache LRU against a list model -----------------------------------

/// Random grow/adopt/shrink/clear/relocate steps on one zone's page
/// cache, checked after every step against a std::list of (base, order,
/// dirty), oldest first. Halfway through, the world is saved to a file,
/// loaded and restored into a fresh node, whose cache must carry on
/// exactly as the model does.
TEST(PageCacheModel, RandomOpsMatchListModelAcrossSaveLoad) {
  struct Block {
    Addr addr;
    unsigned order;
    bool dirty;
    bool operator==(const Block&) const = default;
  };
  os::NodeConfig cfg;
  cfg.machine = hw::dell_r415();
  cfg.machine.ram_bytes = 512 * MiB;
  cfg.seed = 17;
  cfg.aged_boot = false;
  auto engine = std::make_unique<sim::Engine>();
  auto node = std::make_unique<os::Node>(*engine, cfg);
  std::list<Block> model;
  std::uint64_t grown_blocks = 0; // mirrors the cache's dirty rotation
  Rng rng(0x5eed);

  const auto lru = [&] {
    std::vector<Block> got;
    node->memory().cache(0).for_each_lru(
        [&](Addr a, unsigned o, bool d) { got.push_back(Block{a, o, d}); });
    return got;
  };
  const auto check = [&](int step) {
    const mm::PageCache& cache = node->memory().cache(0);
    const std::vector<Block> got = lru();
    ASSERT_TRUE(std::equal(got.begin(), got.end(), model.begin(), model.end()))
        << "step " << step;
    std::uint64_t bytes = 0;
    for (const Block& b : model) {
      bytes += mm::BuddyAllocator::order_bytes(b.order);
    }
    ASSERT_EQ(cache.block_count(), model.size()) << "step " << step;
    ASSERT_EQ(cache.cached_bytes(), bytes) << "step " << step;
  };

  for (int step = 0; step < 3000; ++step) {
    if (step == 1500) {
      const std::string path =
          (std::filesystem::temp_directory_path() / "hpmmap_test_page_cache_model.img").string();
      snapshot::save(snapshot::capture_world(*engine, {node.get()}), path);
      const snapshot::WorldImage image = snapshot::load(path);
      std::remove(path.c_str());
      auto engine2 = std::make_unique<sim::Engine>();
      auto node2 = std::make_unique<os::Node>(*engine2, cfg);
      snapshot::restore_world(image, *engine2, {node2.get()});
      node = std::move(node2);
      engine = std::move(engine2);
      ASSERT_TRUE(verify::MmAuditor(*node).run().ok());
    }
    mm::PageCache& cache = node->memory().cache(0);
    mm::BuddyAllocator& buddy = node->memory().buddy(0);
    const unsigned order = static_cast<unsigned>(rng.uniform(4));
    const std::uint64_t op = rng.uniform(100);
    if (op < 35) { // grow: new blocks join at the back
      const bool dirty = rng.chance(0.2);
      const std::uint64_t want = rng.uniform(1, 16) * 64 * KiB;
      const std::size_t before = model.size();
      const std::uint64_t grown = cache.grow(want, order, dirty);
      const std::vector<Block> got = lru();
      ASSERT_EQ(got.size(), before + grown / mm::BuddyAllocator::order_bytes(order));
      for (std::size_t i = before; i < got.size(); ++i) {
        const bool rotated = static_cast<double>(grown_blocks % 100) <
                             cache.dirty_fraction() * 100.0;
        ++grown_blocks;
        EXPECT_EQ(got[i].order, order);
        EXPECT_EQ(got[i].dirty, dirty || (cache.dirty_fraction() > 0.0 && rotated));
        EXPECT_FALSE(buddy.free_block_containing(got[i].addr).has_value());
        model.push_back(got[i]);
      }
    } else if (op < 55) { // adopt an allocated block
      if (const auto a = buddy.alloc(order)) {
        const bool dirty = rng.chance(0.5);
        cache.adopt(a->addr, order, dirty);
        model.push_back(Block{a->addr, order, dirty});
      }
    } else if (op < 80) { // shrink from the front
      const std::uint64_t want = rng.uniform(1, 8) * 32 * KiB;
      mm::PageCache::ShrinkResult expect;
      while (expect.bytes_freed < want && !model.empty()) {
        expect.bytes_freed += mm::BuddyAllocator::order_bytes(model.front().order);
        ++(model.front().dirty ? expect.writeback_blocks : expect.clean_blocks);
        model.pop_front();
      }
      const mm::PageCache::ShrinkResult got = cache.shrink(want);
      EXPECT_EQ(got.bytes_freed, expect.bytes_freed);
      EXPECT_EQ(got.writeback_blocks, expect.writeback_blocks);
      EXPECT_EQ(got.clean_blocks, expect.clean_blocks);
    } else if (op < 82) {
      cache.clear();
      model.clear();
    } else if (!model.empty()) { // relocate keeps the LRU position
      auto it = model.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng.uniform(model.size())));
      if (const auto target = buddy.alloc(it->order)) {
        cache.relocate(it->addr, target->addr);
        buddy.free(it->addr, it->order);
        it->addr = target->addr;
      }
    }
    ASSERT_NO_FATAL_FAILURE(check(step));
    if (step % 250 == 0) {
      verify::AuditReport r;
      verify::audit_page_cache(node->memory().buddy(0), node->memory().cache(0), "zone0", r);
      ASSERT_TRUE(r.ok()) << "step " << step << ": " << r.summary();
    }
  }
}

// --- causal spans ----------------------------------------------------------

// The flight-recorder image carries each event's causal span, so a
// capture taken mid-request restores with attribution intact.
TEST(SnapshotTrace, SpanCarryingEventsRoundTripThroughSaveLoad) {
  trace::recorder().set_capacity(1024);
  trace::enable(static_cast<std::uint32_t>(trace::Category::kHarness));
  trace::enable_spans(true);
  {
    trace::SpanScope outer(41);
    trace::instant(trace::Category::kHarness, "span.outer", 7, 2,
                   {trace::Arg::u64("k", 1)});
    {
      trace::SpanScope inner(42);
      trace::complete(trace::Category::kHarness, "span.inner", 100, 50, 7, 2,
                      {trace::Arg::str("who", "inner")});
    }
  }
  trace::instant(trace::Category::kHarness, "span.none", 7, 2);
  trace::enable_spans(false);
  trace::disable_all();
  const std::vector<trace::Event> want = trace::recorder().snapshot();

  sim::Engine engine;
  os::Node node(engine, node_config(5, /*aged=*/false));
  const std::string path = "/tmp/hpmmap_test_span_snapshot.img";
  snapshot::save(snapshot::capture_world(engine, {&node}), path);
  const snapshot::WorldImage loaded = snapshot::load(path);
  std::remove(path.c_str());

  // Restore into a fresh world with an emptied recorder: the ring that
  // comes back is the image's.
  trace::recorder().clear();
  sim::Engine engine2;
  os::Node node2(engine2, node_config(5, /*aged=*/false));
  snapshot::restore_world(loaded, engine2, {&node2});
  const std::vector<trace::Event> got_ring = trace::recorder().snapshot();

  ASSERT_EQ(got_ring.size(), want.size());
  std::uint32_t outer_span = 0, inner_span = 0, none_span = 99;
  for (std::size_t i = 0; i < got_ring.size(); ++i) {
    const trace::Event& got = got_ring[i];
    EXPECT_EQ(got.span, want[i].span) << trace::describe(want[i]);
    EXPECT_EQ(got.ts, want[i].ts);
    EXPECT_EQ(got.name(), want[i].name());
    if (got.name() == "span.outer") {
      outer_span = got.span;
    } else if (got.name() == "span.inner") {
      inner_span = got.span;
    } else if (got.name() == "span.none") {
      none_span = got.span;
    }
  }
  EXPECT_EQ(outer_span, 41u);
  EXPECT_EQ(inner_span, 42u); // the nested scope won while it was live
  EXPECT_EQ(none_span, 0u);   // emitted outside any scope
}

// --- amortized-aging sweep -------------------------------------------------

TEST(SnapshotSweep, SnapshottedTrialsMatchPlainBatchBitForBit) {
  std::vector<harness::SingleNodeRunConfig> configs;
  // Three members sharing one world (app / app_cores / duration differ)…
  configs.push_back(quick("miniMD", harness::Manager::kThp, workloads::profile_a(2), 2));
  configs.push_back(quick("HPCCG", harness::Manager::kThp, workloads::profile_a(2), 2));
  configs.push_back(quick("miniFE", harness::Manager::kThp, workloads::profile_a(2), 4));
  configs.back().duration_scale = 0.03;
  // …and a singleton (different manager) that must run straight.
  configs.push_back(quick("miniMD", harness::Manager::kHpmmap, workloads::profile_a(2), 2));
  const std::vector<harness::SeriesPoint> plain =
      harness::run_trials_batch(configs, /*trials=*/2, /*jobs=*/1);
  const std::vector<harness::SeriesPoint> snap =
      harness::run_trials_snapshotted(configs, /*trials=*/2, /*jobs=*/1);
  expect_points_equal(plain, snap);
  // Parallel fan-out folds identically too (the BatchRunner contract).
  expect_points_equal(plain, harness::run_trials_snapshotted(configs, 2, /*jobs=*/4));
}

// --- time travel -----------------------------------------------------------

/// Replay-to-anomaly: run a traced world while taking periodic captures,
/// pick an "anomaly" off the flight recorder (a khugepaged merge
/// completing — preferring the rarer abort if one happened), restore the
/// latest capture preceding it and single-step the engine until the
/// anomaly's timestamp. The restored world must re-emit the identical
/// event — pid, timestamp and arguments — proving a capture is a usable
/// debugging time machine, not just a warm-start cache.
TEST(SnapshotTimeTravel, SingleSteppingFromRestoreReproducesTheAnomalyEvent) {
  const std::uint32_t thp_mask = static_cast<std::uint32_t>(trace::Category::kThp);
  trace::recorder().set_capacity(std::size_t{1} << 16);
  trace::enable(thp_mask);

  // An aged machine short on order-9 blocks: THP first touches fall back
  // to 4K, khugepaged merges them later — scheduled engine work we can
  // replay without re-running any syscall. (khugepaged's scan period is
  // 10 s of virtual time, so the anomaly lands tens of slices in.)
  os::NodeConfig cfg;
  cfg.machine = hw::dell_r415();
  cfg.machine.ram_bytes = 2 * GiB;
  cfg.seed = 31;
  cfg.aged_boot = true;
  cfg.boot_cache_fraction = 0.70;
  cfg.boot_slab_fraction = 0.12;
  sim::Engine engine;
  os::Node node(engine, cfg);
  std::vector<os::Process*> procs;
  for (int i = 0; i < 3; ++i) {
    procs.push_back(&node.spawn("tt" + std::to_string(i), os::MmPolicy::kLinuxThp, i, 1.0,
                                mm::AddressSpace::ZonePolicy::kSingle, 0));
  }
  for (os::Process* p : procs) {
    const auto out = node.sys_mmap(*p, 64 * MiB, kProtRW, os::Node::Segment::kHeapData);
    ASSERT_EQ(out.err, Errno::kOk);
    (void)node.touch_range(*p, Range{out.addr, out.addr + 64 * MiB});
  }
  ASSERT_GT(node.thp()->stats().fault_huge_fallback, 0u);

  // From here the timeline is purely engine-driven. Interleave captures
  // with one-second slices, keeping a short ring of recent images (how a
  // flight-recorder debugger would bound its history), and stop once a
  // merge lands past the oldest retained capture.
  struct Capture {
    Cycles now = 0;
    snapshot::WorldImage image;
  };
  std::deque<Capture> ring;
  const auto slice = static_cast<Cycles>(1.0 * cfg.machine.clock_hz);
  const auto find_anomaly = [&]() -> const trace::Event* {
    const trace::Event* best = nullptr;
    // Static storage so the returned pointer outlives the call: the ring
    // buffer itself stays alive, but snapshot() copies.
    static std::vector<trace::Event> events;
    events = trace::recorder().snapshot();
    for (const trace::Event& e : events) {
      if (ring.empty() || e.ts <= ring.front().now) {
        continue;
      }
      if (e.name() == "khugepaged.merge_abort") {
        best = &e; // the rarer event wins when both happened
      } else if ((best == nullptr || best->name() != "khugepaged.merge_abort") &&
                 e.name() == "khugepaged.merge_done") {
        best = &e;
      }
    }
    return best;
  };
  const trace::Event* anomaly = nullptr;
  for (int i = 0; i < 80 && anomaly == nullptr; ++i) {
    ring.push_back({engine.now(), snapshot::capture_world(engine, {&node})});
    if (ring.size() > 4) {
      ring.pop_front();
    }
    engine.run_until(engine.now() + slice);
    anomaly = find_anomaly();
  }
  trace::disable_all();
  ASSERT_NE(anomaly, nullptr) << "no khugepaged merge landed in the window";
  const trace::Event want = *anomaly;

  const Capture* from = nullptr;
  for (const Capture& c : ring) {
    if (c.now < want.ts) {
      from = &c;
    }
  }
  ASSERT_NE(from, nullptr);

  // Time-travel: fresh boot, restore, single-step to the anomaly.
  sim::Engine engine2;
  cfg.aged_boot = false;
  os::Node node2(engine2, cfg);
  snapshot::restore_world(from->image, engine2, {&node2});
  EXPECT_EQ(engine2.now(), from->now);
  const std::size_t replay_start = trace::recorder().size();
  trace::enable(thp_mask);
  bool replayed = false;
  std::uint64_t steps = 0;
  while (!replayed && engine2.now() <= want.ts && snapshot::step_one(engine2)) {
    ++steps;
    const std::vector<trace::Event> replay = trace::recorder().snapshot();
    for (std::size_t i = replay_start; i < replay.size(); ++i) {
      const trace::Event& e = replay[i];
      if (e.ts == want.ts && e.name() == want.name() && e.pid == want.pid) {
        expect_args_equal(e, want, i);
        // Causal context must replay too: the restored world re-emits
        // the event under the same span (or span-free, like here).
        EXPECT_EQ(e.span, want.span) << trace::describe(e);
        replayed = true;
      }
    }
  }
  trace::disable_all();
  // describe() renders the span id when the anomaly carries one, so the
  // dump names the victim request/actor, not just the raw tracepoint.
  EXPECT_TRUE(replayed) << "anomaly not re-emitted after " << steps << " steps from ts "
                        << from->now << ": " << trace::describe(want);
  EXPECT_GT(steps, 0u);
}

} // namespace
} // namespace hpmmap
