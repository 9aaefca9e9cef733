// Serving demo: a latency-sensitive request service riding out a noisy
// neighbor. A diurnal arrival wave (trough -> peak -> trough) plays
// against each memory manager, and halfway through the window a
// competing kernel build lands on the same node — the moment the paper's
// consolidation story is about. The per-backend SLO summary shows where
// each manager sheds its tail.
//
//   $ ./build/examples/serving_demo [mean_rps]
//
// Unlike `run_experiment --experiment server` (which drives the packaged
// harness), this composes the pieces by hand — engine, node, schedule,
// ServerApp, KernelBuild — so it doubles as a tour of the serving API.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "harness/experiment.hpp"
#include "harness/table.hpp"
#include "hw/machine.hpp"
#include "os/node.hpp"
#include "serving/arrival.hpp"
#include "sim/engine.hpp"
#include "workloads/kernel_build.hpp"
#include "workloads/server_app.hpp"

namespace {

using namespace hpmmap;

struct DemoResult {
  workloads::ServerStats server;
  std::vector<harness::SloOutcome> slo;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  double build_start_seconds = 0;
};

// Same backing split the harness uses: the serving side gets the
// pool/offline region, the commodity side keeps the rest of the zone.
os::NodeConfig node_for(harness::Manager manager, const hw::MachineSpec& machine) {
  os::NodeConfig cfg;
  cfg.machine = machine;
  cfg.seed = 2014;
  cfg.name = "r415";
  const std::uint64_t pool = 6 * GiB;
  switch (manager) {
    case harness::Manager::kThp:
      cfg.thp_enabled = true;
      break;
    case harness::Manager::kHugetlbfs:
      cfg.thp_enabled = false;
      cfg.hugetlb_pool_per_zone = pool;
      break;
    case harness::Manager::kHpmmap: {
      cfg.thp_enabled = true; // THP still manages the commodity side
      core::ModuleConfig mod;
      mod.offline_bytes_per_zone = pool;
      cfg.hpmmap = mod;
      break;
    }
  }
  return cfg;
}

os::MmPolicy policy_for(harness::Manager manager) {
  switch (manager) {
    case harness::Manager::kThp:       return os::MmPolicy::kLinuxThp;
    case harness::Manager::kHugetlbfs: return os::MmPolicy::kHugetlbfs;
    case harness::Manager::kHpmmap:    return os::MmPolicy::kHpmmap;
  }
  return os::MmPolicy::kLinuxThp;
}

DemoResult run_backend(harness::Manager manager, double mean_rps) {
  sim::Engine engine;
  const hw::MachineSpec machine = hw::dell_r415();
  os::Node node(engine, node_for(manager, machine));
  Rng rng(2014);

  // One diurnal period across the window: the service sees roughly
  // half load at the edges and the configured peak in the middle —
  // which is exactly when the build arrives.
  serving::ArrivalConfig arrival;
  arrival.shape = serving::ArrivalShape::kDiurnal;
  arrival.mean_rps = mean_rps;
  arrival.duration_seconds = 1.0;
  arrival.diurnal_peak_factor = 2.0;
  arrival.diurnal_periods = 1;
  std::vector<serving::ScheduledRequest> schedule =
      serving::generate_schedule(arrival, machine.clock_hz, rng.fork("arrival"));

  workloads::ServerConfig service;
  service.policy = policy_for(manager);
  service.workers = 4;
  service.budgets = {
      {"lat<0.5ms", machine.cycles(0.0005)},
      {"lat<2ms", machine.cycles(0.002)},
  };
  workloads::ServerApp server(engine, node, std::move(service), std::move(schedule),
                              rng.fork("server"));

  // The mid-run ambush: a `make -j8` kernel build starts half a second
  // into the serving window, on the same node, unpinned.
  workloads::KernelBuildConfig bc;
  bc.jobs = 8;
  auto build = std::make_unique<workloads::KernelBuild>(node, bc, rng.fork("build"));
  DemoResult out;
  const Cycles build_at = engine.now() + machine.cycles(0.5);
  const Cycles t0 = engine.now();
  engine.schedule_at(build_at, [&] {
    out.build_start_seconds = machine.seconds(engine.now() - t0);
    build->start();
  });

  server.start([&engine] { engine.stop(); });
  engine.run();
  build->stop();

  out.server = server.stats();
  const serving::SloAccountant& slo = server.slo();
  for (std::size_t i = 0; i < slo.budget_count(); ++i) {
    harness::SloOutcome o;
    o.label = slo.budget(i).label;
    o.budget_us = machine.seconds(slo.budget(i).budget) * 1e6;
    o.violations = slo.violations(i);
    out.slo.push_back(std::move(o));
  }
  const std::vector<double> q = server.latency().reservoir().quantiles({0.50, 0.99, 0.999});
  out.p50_us = q[0];
  out.p99_us = q[1];
  out.p999_us = q[2];
  return out;
}

} // namespace

int main(int argc, char** argv) {
  const double mean_rps = argc > 1 ? std::atof(argv[1]) : 60'000.0;

  std::printf("Serving demo: diurnal wave @ %.0f rps mean (2x peak), 4 workers,\n"
              "kernel build (-j8) ambushes the node at t=0.5s of a 1s window\n\n",
              mean_rps);

  harness::Table table({"Manager", "Completed", "Shed", "p50 (us)", "p99 (us)",
                        "p99.9 (us)", "<0.5ms miss", "<2ms miss"});
  std::uint64_t best = ~0ull;
  std::string best_name;
  for (const harness::Manager manager :
       {harness::Manager::kThp, harness::Manager::kHugetlbfs, harness::Manager::kHpmmap}) {
    const DemoResult r = run_backend(manager, mean_rps);
    std::uint64_t total = 0;
    for (const auto& o : r.slo) {
      total += o.violations;
    }
    if (total < best) {
      best = total;
      best_name = std::string(name(manager));
    }
    table.add_row({std::string(name(manager)), harness::with_commas(r.server.completed),
                   harness::with_commas(r.server.shed_queue + r.server.shed_timeout),
                   harness::fixed(r.p50_us, 1), harness::fixed(r.p99_us, 1),
                   harness::fixed(r.p999_us, 1), harness::with_commas(r.slo[0].violations),
                   harness::with_commas(r.slo[1].violations)});
  }
  table.print();
  std::printf("\nFewest SLO misses: %s. The build floods the buddy allocator and the\n"
              "page cache mid-window; managers that fault (or zero) on the request\n"
              "path eat that pressure inside the latency budget, HPMMAP pre-backs\n"
              "its arenas and rides through (paper, Sec. III-IV).\n",
              best_name.c_str());
  return 0;
}
