// Snapshot amortization self-report (JSON, gated by bench_diff in CI).
//
//   BENCH_snapshot.json — wall-time of a Figure-7-shaped sweep run
//   straight (every trial re-ages its world from scratch) vs through
//   run_trials_snapshotted (each world group ages ONCE per trial and
//   every member config resumes from the captured image), plus the
//   byte-identity check between the two result sets.
//
// The sweep shares one seed across apps and core counts so each
// (manager) slice forms a single world group — the shape fig7 itself
// uses — and runs a deeply aged world (long build-churn warmup, short
// measurement windows): the regime the snapshot path exists for, where
// re-aging per trial is the sweep's dominant cost. `speedup` is gated
// (a drop past the threshold fails CI); `deterministic_match` flipping
// to false fails the bench directly.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "harness/batch.hpp"
#include "harness/experiment.hpp"
#include "workloads/profiles.hpp"

namespace {

using namespace hpmmap;

std::vector<harness::SingleNodeRunConfig> sweep_configs(bool full) {
  const char* apps[] = {"miniMD", "HPCCG"};
  const std::vector<std::uint32_t> core_counts =
      full ? std::vector<std::uint32_t>{1, 2, 4} : std::vector<std::uint32_t>{1, 4};
  const harness::Manager managers[] = {harness::Manager::kHpmmap,
                                       harness::Manager::kThp,
                                       harness::Manager::kHugetlbfs};
  std::vector<harness::SingleNodeRunConfig> cfgs;
  for (const harness::Manager mgr : managers) {
    for (const char* app : apps) {
      for (const std::uint32_t cores : core_counts) {
        harness::SingleNodeRunConfig cfg;
        cfg.app = app;
        cfg.manager = mgr;
        cfg.commodity = workloads::profile_a(cores);
        cfg.app_cores = cores;
        // One seed for the whole sweep: every config of a manager slice
        // shapes the same aged world (same_world still splits on the
        // manager), so the slice is one snapshot group.
        cfg.seed = 1000;
        cfg.footprint_scale = 1.0;
        // Deeply aged world, short measurement window: 30 s of build
        // churn before a ~0.2 s app phase makes re-aging the dominant
        // per-run cost, which is exactly what the snapshot amortizes.
        cfg.warmup_seconds = 30.0;
        cfg.duration_scale = 0.01;
        cfgs.push_back(cfg);
      }
    }
  }
  return cfgs;
}

struct SweepTiming {
  std::vector<harness::SeriesPoint> points;
  double wall_seconds = 0.0;
};

template <typename Fn>
SweepTiming time_sweep(Fn&& run) {
  SweepTiming t;
  const auto t0 = std::chrono::steady_clock::now();
  t.points = run();
  t.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return t;
}

bool identical(const std::vector<harness::SeriesPoint>& a,
               const std::vector<harness::SeriesPoint>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Bitwise comparison: the determinism contract is byte-identity, not
    // approximate equality.
    if (std::memcmp(&a[i].mean_seconds, &b[i].mean_seconds, sizeof(double)) != 0 ||
        std::memcmp(&a[i].stdev_seconds, &b[i].stdev_seconds, sizeof(double)) != 0 ||
        a[i].trials != b[i].trials || a[i].events != b[i].events) {
      return false;
    }
    for (std::size_t k = 0; k < mm::kFaultKindCount; ++k) {
      if (a[i].fault_counts[k] != b[i].fault_counts[k] ||
          a[i].fault_cycles[k] != b[i].fault_cycles[k]) {
        return false;
      }
    }
  }
  return true;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

} // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  bench::print_mode(opt, "Snapshot amortized aging: age-once/fan-out vs re-age per trial");

  const unsigned jobs = opt.jobs == 0 ? harness::hardware_jobs() : opt.jobs;
  const std::uint32_t trials = opt.full ? opt.trials : 2;
  const std::vector<harness::SingleNodeRunConfig> cfgs = sweep_configs(opt.full);

  const SweepTiming straight =
      time_sweep([&] { return harness::run_trials_batch(cfgs, trials, jobs); });
  const SweepTiming snapshotted =
      time_sweep([&] { return harness::run_trials_snapshotted(cfgs, trials, jobs); });
  const bool match = identical(straight.points, snapshotted.points);
  const double speedup = snapshotted.wall_seconds > 0
                             ? straight.wall_seconds / snapshotted.wall_seconds
                             : 0.0;

  std::printf("sweep:    %zu configs x %u trials in 3 world groups\n", cfgs.size(),
              trials);
  std::printf("straight: %.3f s wall (every trial re-ages its world)\n",
              straight.wall_seconds);
  std::printf("snapshot: %.3f s wall (age once per group+trial, resume members)\n",
              snapshotted.wall_seconds);
  std::printf("speedup:  %.2fx   identical=%s\n", speedup, match ? "yes" : "NO");

  std::string j;
  j += "{\n";
  j += "  \"bench\": \"snapshot_amortized_aging\",\n";
  j += "  \"sweep\": \"fig7 slice: {miniMD,HPCCG} x cores x 3 managers, profile A, "
       "30 s aged warmup\",\n";
  j += "  \"configs\": " + std::to_string(cfgs.size()) + ",\n";
  j += "  \"trials_per_config\": " + std::to_string(trials) + ",\n";
  j += "  \"world_groups\": 3,\n";
  j += "  \"wall_seconds_straight\": " + num(straight.wall_seconds) + ",\n";
  j += "  \"wall_seconds_snapshotted\": " + num(snapshotted.wall_seconds) + ",\n";
  j += "  \"jobs\": " + std::to_string(jobs) + ",\n";
  j += "  \"hardware_concurrency\": " + std::to_string(std::thread::hardware_concurrency()) +
       ",\n";
  j += "  \"speedup\": " + num(speedup) + ",\n";
  j += std::string("  \"deterministic_match\": ") + (match ? "true" : "false") + "\n";
  j += "}\n";
  if (!bench::write_bench_json(opt, "BENCH_snapshot.json", j)) {
    return 1;
  }
  if (!match) {
    std::printf("FAIL: snapshotted sweep diverged from the straight run\n");
    return 1;
  }
  if (speedup < 2.0) {
    std::printf("FAIL: amortized aging under 2x (%.2fx)\n", speedup);
    return 1;
  }
  return 0;
}
