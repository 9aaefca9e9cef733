// Rate-vs-p99 knee: how far each manager can push the open-loop arrival
// rate before the serving tail blows through the tight latency budget.
//
// The SLO figure holds the rate fixed and counts violations; this one
// sweeps the rate and locates the knee — the highest swept rate whose
// p99 (nearest rank over the latency reservoir) still fits under 0.5 ms. The
// same seed replays every (manager, rate) cell, so the knee offsets are
// manager effects. Every cell runs with attribution on, and the report
// prints the exact bucket decomposition of the p99 request *at each
// manager's knee* — where the cycles go at the operating point that
// matters (DESIGN.md §15).
//
// Self-checks (exit 1 on failure):
//   - every request's buckets must sum exactly to its measured latency
//     (residual_errors == 0 across the whole grid);
//   - HPMMAP's knee must sit strictly above both Linux knees, and the
//     three knees must be pairwise distinct;
//   - the whole grid is re-run serially and must match the parallel
//     batch byte-for-byte.
//
// BENCH_attr.json gates the knee speedups through bench_diff like the
// other self-reports.
//
// Usage: fig_server_knee [--full] [--trials N] [--jobs N] [--out-dir DIR]
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "harness/batch.hpp"
#include "hw/machine.hpp"
#include "profile/attribution.hpp"
#include "workloads/profiles.hpp"

namespace {

using namespace hpmmap;

constexpr double kBaseRateRps = 80'000.0; // the SLO figure's operating point
constexpr double kWindowSeconds = 10.0;
constexpr double kBudgetMs = 0.5; // tight budget from the SLO figure

// Rate grid as multiples of the base rate. Spacing is deliberately
// uneven: fine through the region where the Linux managers fall over,
// coarser out where only HPMMAP survives.
constexpr double kRateGrid[] = {0.50, 0.65, 0.80, 0.90, 1.00, 1.10, 1.20, 1.35, 1.50};
constexpr std::size_t kGridSize = sizeof(kRateGrid) / sizeof(kRateGrid[0]);

harness::ServerRunConfig cell_config(const bench::BenchOptions& opt, harness::Manager m,
                                     double rate_mult) {
  harness::ServerRunConfig cfg;
  cfg.manager = m;
  cfg.seed = 42;
  cfg.duration_scale = opt.duration_scale;
  cfg.arrival.shape = serving::ArrivalShape::kPoisson;
  cfg.arrival.mean_rps = kBaseRateRps * rate_mult;
  cfg.arrival.duration_seconds = kWindowSeconds;
  cfg.commodity = workloads::profile_a(cfg.service.workers);
  cfg.attribution = true;
  return cfg;
}

struct CellOutcome {
  double rate_rps = 0.0;
  double exact_p99_us = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t residual_errors = 0;
};

struct KneeOutcome {
  harness::Manager manager;
  double knee_rps = 0.0;                // 0 = even the lowest rate blew the budget
  std::size_t knee_cell = kGridSize;    // index into this manager's cells
  std::vector<CellOutcome> cells;
};

bool identical(const std::vector<harness::ServerRunResult>& a,
               const std::vector<harness::ServerRunResult>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const harness::ServerRunResult& x = a[i];
    const harness::ServerRunResult& y = b[i];
    if (x.slo_total != y.slo_total || x.server.completed != y.server.completed ||
        x.tail.exact_p99_us != y.tail.exact_p99_us || x.tail.p99_us != y.tail.p99_us ||
        x.runtime_seconds != y.runtime_seconds || x.events_fired != y.events_fired ||
        x.attribution.completed != y.attribution.completed ||
        x.attribution.residual_errors != y.attribution.residual_errors ||
        x.attribution.totals.sum() != y.attribution.totals.sum()) {
      return false;
    }
  }
  return true;
}

} // namespace

int main(int argc, char** argv) {
  bench::BenchOptions opt = bench::parse_options(argc, argv);
  bench::print_mode(opt, "serving knee: rate-vs-p99 saturation point per manager");

  const double budget_us = kBudgetMs * 1000.0;
  const harness::Manager managers[] = {harness::Manager::kThp, harness::Manager::kHugetlbfs,
                                       harness::Manager::kHpmmap};

  // One flat (manager x rate) grid through the batch runner; results
  // come back in config order for any --jobs value.
  std::vector<harness::ServerRunConfig> grid;
  for (const harness::Manager m : managers) {
    for (const double mult : kRateGrid) {
      grid.push_back(cell_config(opt, m, mult));
    }
  }
  std::vector<harness::ServerRunResult> results = harness::run_batch(grid, opt.jobs);

  // Determinism cross-check: the same grid, strictly serial.
  const bool deterministic = identical(results, harness::run_batch(grid, /*jobs=*/1));

  std::uint64_t residual_errors = 0;
  std::vector<KneeOutcome> knees;
  std::string csv = "manager,rate_rps,exact_p99_us,completed,budget_us,within_budget\n";
  for (std::size_t mi = 0; mi < 3; ++mi) {
    KneeOutcome knee;
    knee.manager = managers[mi];
    for (std::size_t ri = 0; ri < kGridSize; ++ri) {
      const harness::ServerRunResult& r = results[mi * kGridSize + ri];
      CellOutcome cell;
      cell.rate_rps = kBaseRateRps * kRateGrid[ri];
      cell.exact_p99_us = r.tail.exact_p99_us;
      cell.completed = r.server.completed;
      cell.residual_errors = r.attribution.residual_errors;
      residual_errors += cell.residual_errors;
      const bool within = cell.exact_p99_us <= budget_us;
      if (within) {
        // Highest in-budget rate wins; a dip back under budget past the
        // knee still counts (the knee is the last sustainable rate).
        knee.knee_rps = cell.rate_rps;
        knee.knee_cell = ri;
      }
      knee.cells.push_back(cell);
      csv += std::string(name(knee.manager)) + "," + std::to_string(cell.rate_rps) + "," +
             std::to_string(cell.exact_p99_us) + "," + std::to_string(cell.completed) + "," +
             std::to_string(budget_us) + "," + (within ? "1" : "0") + "\n";
    }
    knees.push_back(std::move(knee));
  }

  std::printf("%-18s", "rate (rps)");
  for (const double mult : kRateGrid) {
    std::printf(" %9.0f", kBaseRateRps * mult);
  }
  std::printf("\n");
  for (const KneeOutcome& k : knees) {
    std::printf("%-18s", std::string(name(k.manager)).c_str());
    for (const CellOutcome& c : k.cells) {
      std::printf(" %8.0f%c", c.exact_p99_us, c.exact_p99_us <= budget_us ? ' ' : '*');
    }
    std::printf("  (p99 us; * = over %.0f us budget)\n", budget_us);
  }
  std::printf("\n");
  for (const KneeOutcome& k : knees) {
    std::printf("%-18s knee %9.0f rps\n", std::string(name(k.manager)).c_str(), k.knee_rps);
  }

  // Attribution at the knee: where the p99 request's cycles go at each
  // manager's last sustainable rate.
  const double clock_hz = hw::dell_r415().clock_hz;
  for (std::size_t mi = 0; mi < 3; ++mi) {
    const KneeOutcome& k = knees[mi];
    if (k.knee_cell >= kGridSize) {
      continue;
    }
    const harness::ServerRunResult& r = results[mi * kGridSize + k.knee_cell];
    std::printf("\n-- %s @ knee (%.0f rps) --\n", std::string(name(k.manager)).c_str(),
                k.knee_rps);
    std::fputs(profile::render_report(r.attribution, clock_hz).c_str(), stdout);
  }

  const std::string csv_path = opt.out_dir + "/fig_server_knee.csv";
  if (std::FILE* f = std::fopen(csv_path.c_str(), "w")) {
    std::fputs(csv.c_str(), f);
    std::fclose(f);
    std::printf("\nwrote %s\n", csv_path.c_str());
  }

  const double thp_knee = knees[0].knee_rps;
  const double hugetlbfs_knee = knees[1].knee_rps;
  const double hpmmap_knee = knees[2].knee_rps;
  const auto speedup = [](double linux_knee, double hpmmap_k) {
    return linux_knee > 0.0 ? hpmmap_k / linux_knee : 0.0;
  };
  const double vs_thp = speedup(thp_knee, hpmmap_knee);
  const double vs_hugetlbfs = speedup(hugetlbfs_knee, hpmmap_knee);
  std::printf("knee speedup: HPMMAP/THP %.3f, HPMMAP/HugeTLBfs %.3f\n", vs_thp, vs_hugetlbfs);
  std::printf("attribution residual errors: %llu\n",
              static_cast<unsigned long long>(residual_errors));
  std::printf("determinism (serial vs parallel grid): %s\n",
              deterministic ? "match" : "MISMATCH");

  char body[1024];
  std::snprintf(body, sizeof(body),
                "{\n"
                "  \"bench\": \"server_knee\",\n"
                "  \"sweep\": \"poisson %.0f-%.0f rps, p99 < %.0f us, attribution on\",\n"
                "  \"thp_knee_rps\": %.0f,\n"
                "  \"hugetlbfs_knee_rps\": %.0f,\n"
                "  \"hpmmap_knee_rps\": %.0f,\n"
                "  \"attr_residual_errors\": %llu,\n"
                "  \"hpmmap_over_thp_knee_speedup\": %.5f,\n"
                "  \"hpmmap_over_hugetlbfs_knee_speedup\": %.5f,\n"
                "  \"deterministic_match\": %s\n"
                "}\n",
                kBaseRateRps * kRateGrid[0], kBaseRateRps * kRateGrid[kGridSize - 1], budget_us,
                thp_knee, hugetlbfs_knee, hpmmap_knee,
                static_cast<unsigned long long>(residual_errors), vs_thp, vs_hugetlbfs,
                deterministic ? "true" : "false");
  if (!bench::write_bench_json(opt, "BENCH_attr.json", body)) {
    return 1;
  }

  if (residual_errors != 0) {
    std::fprintf(stderr, "FAIL: %llu requests whose buckets do not sum to measured latency\n",
                 static_cast<unsigned long long>(residual_errors));
    return 1;
  }
  if (!deterministic) {
    std::fprintf(stderr, "FAIL: parallel grid diverged from the serial run\n");
    return 1;
  }
  if (hpmmap_knee <= thp_knee || hpmmap_knee <= hugetlbfs_knee || thp_knee == hugetlbfs_knee) {
    std::fprintf(stderr,
                 "FAIL: knees must be pairwise distinct with HPMMAP highest "
                 "(thp %.0f, hugetlbfs %.0f, hpmmap %.0f)\n",
                 thp_knee, hugetlbfs_knee, hpmmap_knee);
    return 1;
  }
  return 0;
}
