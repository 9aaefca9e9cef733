// Serving subsystem: open-loop arrival schedules, the slab arena,
// SLO accounting, admission control, and the determinism contracts the
// harness promises for server runs (identical results across repeat
// runs, --jobs values, and telemetry on/off).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "harness/batch.hpp"
#include "harness/experiment.hpp"
#include "hw/machine.hpp"
#include "os/node.hpp"
#include "serving/arrival.hpp"
#include "serving/slab.hpp"
#include "serving/slo.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "workloads/profiles.hpp"

namespace hpmmap::serving {
namespace {

constexpr double kClockHz = 2.3e9;

ArrivalConfig tiny_arrival(ArrivalShape shape) {
  ArrivalConfig cfg;
  cfg.shape = shape;
  cfg.mean_rps = 5000.0;
  cfg.duration_seconds = 0.2;
  return cfg;
}

TEST(Arrival, ScheduleIsDeterministic) {
  for (const ArrivalShape shape :
       {ArrivalShape::kPoisson, ArrivalShape::kBursty, ArrivalShape::kDiurnal}) {
    const ArrivalConfig cfg = tiny_arrival(shape);
    const auto a = generate_schedule(cfg, kClockHz, Rng(7));
    const auto b = generate_schedule(cfg, kClockHz, Rng(7));
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].arrival, b[i].arrival);
      EXPECT_EQ(a[i].object_key, b[i].object_key);
      EXPECT_EQ(a[i].size_quantile, b[i].size_quantile);
      EXPECT_EQ(a[i].work_jitter, b[i].work_jitter);
    }
  }
}

TEST(Arrival, NonDecreasingAndInsideWindow) {
  for (const ArrivalShape shape :
       {ArrivalShape::kPoisson, ArrivalShape::kBursty, ArrivalShape::kDiurnal}) {
    const ArrivalConfig cfg = tiny_arrival(shape);
    const auto sched = generate_schedule(cfg, kClockHz, Rng(11));
    ASSERT_FALSE(sched.empty());
    const auto window =
        static_cast<Cycles>(kClockHz * cfg.duration_seconds);
    Cycles prev = 0;
    for (const ScheduledRequest& r : sched) {
      EXPECT_GE(r.arrival, prev);
      EXPECT_LT(r.arrival, window);
      EXPECT_GE(r.size_quantile, 0.0);
      EXPECT_LT(r.size_quantile, 1.0);
      EXPECT_GT(r.work_jitter, 0.0);
      prev = r.arrival;
    }
  }
}

TEST(Arrival, MeanRateIsRespected) {
  ArrivalConfig cfg = tiny_arrival(ArrivalShape::kPoisson);
  cfg.mean_rps = 20'000.0;
  cfg.duration_seconds = 1.0;
  const auto sched = generate_schedule(cfg, kClockHz, Rng(3));
  const auto n = static_cast<double>(sched.size());
  EXPECT_NEAR(n, cfg.mean_rps * cfg.duration_seconds, 5.0 * std::sqrt(n));
}

TEST(Arrival, BurstyHasHigherGapVarianceThanPoisson) {
  ArrivalConfig cfg = tiny_arrival(ArrivalShape::kPoisson);
  cfg.mean_rps = 20'000.0;
  cfg.duration_seconds = 1.0;
  const auto dispersion = [](const std::vector<ScheduledRequest>& sched) {
    RunningStats gaps;
    for (std::size_t i = 1; i < sched.size(); ++i) {
      gaps.add(static_cast<double>(sched[i].arrival - sched[i - 1].arrival));
    }
    return gaps.stdev() / gaps.mean();
  };
  const double poisson_cv = dispersion(generate_schedule(cfg, kClockHz, Rng(5)));
  cfg.shape = ArrivalShape::kBursty;
  const double bursty_cv = dispersion(generate_schedule(cfg, kClockHz, Rng(5)));
  EXPECT_GT(bursty_cv, poisson_cv);
}

TEST(Arrival, ParseShapeRejectsUnknown) {
  ArrivalShape shape{};
  EXPECT_TRUE(parse_shape("diurnal", shape));
  EXPECT_EQ(shape, ArrivalShape::kDiurnal);
  EXPECT_FALSE(parse_shape("weekly", shape));
}

// --- slab arena -----------------------------------------------------------

struct SlabFixture {
  sim::Engine engine;
  os::Node node;
  os::Process* proc;

  SlabFixture()
      : node(engine,
             [] {
               os::NodeConfig cfg;
               cfg.machine = hw::dell_r415();
               cfg.machine.ram_bytes = 4 * GiB;
               cfg.seed = 17;
               return cfg;
             }()),
        proc(&node.spawn("slab-test", os::MmPolicy::kLinuxThp, 0, 1.0,
                         mm::AddressSpace::ZonePolicy::kSingle, 0)) {}
};

TEST(SlabArena, RecyclesFreedObjects) {
  SlabFixture f;
  SlabArena arena(f.node, *f.proc);
  const SlabArena::Alloc a = arena.allocate(4096);
  ASSERT_NE(a.addr, 0u);
  EXPECT_FALSE(a.large);
  EXPECT_GT(a.cost, 0u); // chunk mmap + first touch
  arena.free(a.addr, 4096);
  const SlabArena::Alloc b = arena.allocate(4096);
  EXPECT_EQ(b.addr, a.addr); // freelist hands the same object back
  EXPECT_EQ(b.cost, 0u);     // no syscall, no fault
  EXPECT_EQ(arena.stats().objects_recycled, 1u);
  EXPECT_EQ(arena.stats().chunks_mapped, 1u);
}

TEST(SlabArena, ClassesShareChunksButNotObjects) {
  SlabFixture f;
  SlabArena arena(f.node, *f.proc);
  const SlabArena::Alloc small = arena.allocate(256);
  const SlabArena::Alloc big = arena.allocate(64 * KiB);
  EXPECT_NE(small.addr, big.addr);
  arena.free(small.addr, 256);
  const SlabArena::Alloc small2 = arena.allocate(300); // same 512-byte... same class as 256
  EXPECT_EQ(arena.stats().objects_recycled, 0u); // 300 rounds to 512, not 256
  EXPECT_NE(small2.addr, 0u);
}

TEST(SlabArena, OverThresholdTakesDirectMmap) {
  SlabFixture f;
  SlabArena arena(f.node, *f.proc);
  const SlabArena::Alloc big = arena.allocate(SlabArena::kMaxClassBytes + 1);
  ASSERT_NE(big.addr, 0u);
  EXPECT_TRUE(big.large);
  EXPECT_EQ(arena.stats().large_allocs, 1u);
  EXPECT_EQ(arena.stats().chunks_mapped, 0u);
  const Cycles unmap_cost = arena.free(big.addr, SlabArena::kMaxClassBytes + 1);
  EXPECT_GT(unmap_cost, 0u); // munmap is a real syscall
}

TEST(SlabArena, ReleaseAllReturnsMappedBytes) {
  SlabFixture f;
  SlabArena arena(f.node, *f.proc);
  (void)arena.allocate(4096);
  (void)arena.allocate(128 * KiB);
  EXPECT_GT(arena.mapped_bytes(), 0u);
  arena.release_all();
  EXPECT_EQ(arena.mapped_bytes(), 0u);
}

// --- SLO accounting -------------------------------------------------------

TEST(SloAccountant, CountsPerBudgetExceedances) {
  SloAccountant slo({SloBudget{"fast", 100}, SloBudget{"slow", 1000}});
  slo.on_complete(50);    // under both
  slo.on_complete(500);   // over fast only
  slo.on_complete(5000);  // over both
  EXPECT_EQ(slo.completed(), 3u);
  EXPECT_EQ(slo.violations(0), 2u);
  EXPECT_EQ(slo.violations(1), 1u);
  EXPECT_EQ(slo.total_violations(), 3u);
}

TEST(SloAccountant, ShedViolatesEveryBudget) {
  SloAccountant slo({SloBudget{"fast", 100}, SloBudget{"slow", 1000}});
  slo.on_shed();
  EXPECT_EQ(slo.shed(), 1u);
  EXPECT_EQ(slo.violations(0), 1u);
  EXPECT_EQ(slo.violations(1), 1u);
}

TEST(ReservoirSample, ExactWhenUnderCapacity) {
  ReservoirSample res(128, Rng(9));
  for (int i = 100; i >= 1; --i) {
    res.add(static_cast<double>(i));
  }
  EXPECT_EQ(res.size(), 100u);
  const std::vector<double> q = res.quantiles({0.0, 0.5, 1.0});
  EXPECT_DOUBLE_EQ(q[0], 1.0);
  EXPECT_DOUBLE_EQ(q[1], 51.0); // nearest rank floor(0.5 * 100) of 1..100
  EXPECT_DOUBLE_EQ(q[2], 100.0);
  EXPECT_EQ(ReservoirSample(4, Rng(9)).quantiles({0.5, 0.99}), (std::vector<double>{0.0, 0.0}));
}

TEST(ReservoirSample, SubsamplesLargeStreams) {
  ReservoirSample res(256, Rng(13));
  for (int i = 0; i < 100'000; ++i) {
    res.add(static_cast<double>(i % 1000));
  }
  EXPECT_EQ(res.size(), 256u);
  EXPECT_EQ(res.seen(), 100'000u);
  // Uniform over [0, 1000): the reservoir median should land near 500.
  EXPECT_NEAR(res.quantiles({0.5})[0], 500.0, 120.0);
}

// --- full server runs: determinism contracts ------------------------------

harness::ServerRunConfig tiny_server(harness::Manager manager) {
  harness::ServerRunConfig cfg;
  cfg.manager = manager;
  cfg.seed = 77;
  cfg.arrival.mean_rps = 4000.0;
  cfg.arrival.duration_seconds = 0.1;
  cfg.service.workers = 2;
  cfg.service.session_table_bytes = 64 * MiB;
  cfg.service.object_count = 64;
  cfg.commodity = workloads::no_competition();
  return cfg;
}

void expect_identical(const harness::ServerRunResult& a, const harness::ServerRunResult& b) {
  EXPECT_EQ(a.server.completed, b.server.completed);
  EXPECT_EQ(a.server.offered, b.server.offered);
  EXPECT_EQ(a.server.shed_queue, b.server.shed_queue);
  EXPECT_EQ(a.server.shed_timeout, b.server.shed_timeout);
  EXPECT_EQ(a.server.cache_hits, b.server.cache_hits);
  EXPECT_EQ(a.slo_total, b.slo_total);
  EXPECT_EQ(a.tail.samples, b.tail.samples);
  EXPECT_EQ(a.tail.p50_us, b.tail.p50_us);
  EXPECT_EQ(a.tail.p95_us, b.tail.p95_us);
  EXPECT_EQ(a.tail.p999_us, b.tail.p999_us);
  EXPECT_EQ(a.tail.exact_p99_us, b.tail.exact_p99_us);
  EXPECT_EQ(a.runtime_seconds, b.runtime_seconds);
  // events_fired deliberately excluded: sampler daemon ticks are engine
  // events, so it moves with telemetry on/off while results must not.
}

TEST(ServerRun, RepeatRunsAreIdentical) {
  const harness::ServerRunConfig cfg = tiny_server(harness::Manager::kHpmmap);
  const harness::ServerRunResult a = harness::run_server(cfg);
  const harness::ServerRunResult b = harness::run_server(cfg);
  expect_identical(a, b);
  EXPECT_EQ(a.events_fired, b.events_fired);
}

TEST(ServerRun, TrialLoopIsJobsInvariant) {
  const harness::ServerRunConfig cfg = tiny_server(harness::Manager::kThp);
  const auto serial = harness::run_server_trials(cfg, 3, /*jobs=*/1);
  const auto parallel = harness::run_server_trials(cfg, 3, /*jobs=*/4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_identical(serial[i], parallel[i]);
  }
}

TEST(ServerRun, SnapshotResumedTrialsAreByteIdenticalForAnyJobs) {
  // An aged serving node — commodity build churning through warmup —
  // captured at the quiesce point and resumed for measurement must
  // reproduce the straight trial loop byte for byte, at any --jobs.
  harness::ServerRunConfig cfg = tiny_server(harness::Manager::kHpmmap);
  cfg.commodity = workloads::profile_a(2);
  const auto straight = harness::run_server_trials(cfg, 2, /*jobs=*/1);
  for (const unsigned jobs : {1u, 4u}) {
    std::vector<std::function<harness::ServerRunResult()>> tasks;
    for (const std::uint64_t seed : harness::trial_seeds(cfg.seed, 2)) {
      harness::ServerRunConfig trial_cfg = cfg;
      trial_cfg.seed = seed;
      tasks.push_back([trial_cfg] {
        return harness::run_server(trial_cfg, harness::capture_server(trial_cfg));
      });
    }
    const auto resumed = harness::BatchRunner(jobs).map(std::move(tasks));
    ASSERT_EQ(resumed.size(), straight.size());
    for (std::size_t i = 0; i < straight.size(); ++i) {
      expect_identical(straight[i], resumed[i]);
      EXPECT_EQ(straight[i].events_fired, resumed[i].events_fired);
      EXPECT_EQ(straight[i].server.slab.bytes_mapped, resumed[i].server.slab.bytes_mapped);
    }
  }
}

TEST(ServerRun, TelemetrySamplingIsPureObservation) {
  harness::ServerRunConfig cfg = tiny_server(harness::Manager::kHpmmap);
  const harness::ServerRunResult off = harness::run_server(cfg);
  cfg.introspect.sample_interval = 10'000'000;
  const harness::ServerRunResult on = harness::run_server(cfg);
  expect_identical(off, on);
  EXPECT_TRUE(off.telemetry.empty());
  EXPECT_FALSE(on.telemetry.empty());
}

TEST(ServerRun, ServesEveryRequestWhenUnloaded) {
  const harness::ServerRunResult r = harness::run_server(tiny_server(harness::Manager::kThp));
  EXPECT_GT(r.server.completed, 0u);
  EXPECT_EQ(r.server.offered, r.server.completed + r.server.shed_queue + r.server.shed_timeout);
  EXPECT_EQ(r.tail.samples, r.server.completed);
  ASSERT_EQ(r.slo.size(), 2u); // default budgets installed
  EXPECT_GT(r.runtime_seconds, 0.0);
}

TEST(ServerRun, ShallowQueueShedsUnderBurst) {
  harness::ServerRunConfig cfg = tiny_server(harness::Manager::kThp);
  cfg.arrival.shape = ArrivalShape::kBursty;
  cfg.arrival.mean_rps = 60'000.0;
  cfg.arrival.burst_factor = 8.0;
  cfg.service.queue_depth = 4;
  const harness::ServerRunResult r = harness::run_server(cfg);
  EXPECT_GT(r.server.shed_queue, 0u);
  EXPECT_EQ(r.slo_total >= r.server.shed_queue * 2, true)
      << "sheds must violate every budget";
}

TEST(ServerRun, QueueTimeoutShedsStaleRequests) {
  harness::ServerRunConfig cfg = tiny_server(harness::Manager::kThp);
  cfg.arrival.mean_rps = 80'000.0;
  cfg.service.workers = 1;
  cfg.service.queue_depth = 512;
  cfg.service.queue_timeout_seconds = 0.0005;
  const harness::ServerRunResult r = harness::run_server(cfg);
  EXPECT_GT(r.server.shed_timeout, 0u);
}

TEST(ServerRun, ReportedPercentilesAreMonotone) {
  // 80k rps beside a kernel build, the operating point where per-quantile
  // streaming estimates used to cross (p95 above p99). Serving tails come
  // from one sorted reservoir copy and trace histograms from one bucket
  // walk, so every reported vector must be ordered.
  for (const harness::Manager m :
       {harness::Manager::kThp, harness::Manager::kHugetlbfs, harness::Manager::kHpmmap}) {
    harness::ServerRunConfig cfg;
    cfg.manager = m;
    cfg.seed = 42;
    cfg.arrival.mean_rps = 80'000.0;
    cfg.duration_scale = 0.1;
    cfg.commodity = workloads::profile_a(cfg.service.workers);
    const auto trials = harness::run_server_trials(cfg, 3);
    for (std::size_t i = 0; i < trials.size(); ++i) {
      const harness::ServerTailSummary& t = trials[i].tail;
      SCOPED_TRACE(std::string(name(m)) + " trial " + std::to_string(i));
      EXPECT_GT(t.samples, 0u);
      EXPECT_LE(t.p50_us, t.p95_us);
      EXPECT_LE(t.p95_us, t.p99_us);
      EXPECT_LE(t.p99_us, t.p999_us);
      EXPECT_LE(t.p999_us, t.max_us);
    }
  }

  harness::ServerRunConfig traced;
  traced.manager = harness::Manager::kThp;
  traced.seed = 42;
  traced.arrival.mean_rps = 80'000.0;
  traced.duration_scale = 0.02;
  traced.commodity = workloads::profile_a(traced.service.workers);
  traced.trace.categories = trace::kAllCategories;
  (void)harness::run_server(traced);
  const auto& histograms = trace::metrics().histograms();
  EXPECT_FALSE(histograms.empty());
  for (const auto& [hname, h] : histograms) {
    SCOPED_TRACE(hname);
    EXPECT_GT(h.count(), 0u);
    EXPECT_LE(h.min(), h.p50());
    EXPECT_LE(h.p50(), h.p95());
    EXPECT_LE(h.p95(), h.p99());
    EXPECT_LE(h.p99(), h.max());
  }
}

} // namespace
} // namespace hpmmap::serving
