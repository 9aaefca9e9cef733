#include "harness/experiment.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "cluster/network.hpp"
#include "harness/detail.hpp"
#include "common/assert.hpp"
#include "common/rng.hpp"
#include "introspect/procfs.hpp"
#include "os/node.hpp"
#include "sim/engine.hpp"
#include "trace/metrics.hpp"
#include "verify/audit.hpp"
#include "workloads/kernel_build.hpp"
#include "workloads/mpi_app.hpp"
#include "workloads/smp_storm.hpp"

namespace hpmmap::harness {
namespace {

// --- prepared worlds --------------------------------------------------------
//
// Every run shape splits into "prepare" (boot the machine, arm
// verification, construct the commodity builds) and "measure" (launch
// the workload and collect). The straight path ages the world to the
// warmup point between the two; the snapshot path either captures at
// that point or skips aging entirely and overwrites the fresh world
// with a captured image. Constructing every build before starting any
// is order-identical on the engine: the constructor schedules nothing.

/// N nodes on one engine, shaped by detail::layout(config).
template <typename Config>
struct World {
  Config config;
  detail::WorldLayout layout;
  sim::Engine engine;
  std::vector<std::unique_ptr<os::Node>> nodes;
  std::optional<detail::VerifySession> verify;
  std::vector<std::unique_ptr<workloads::KernelBuild>> builds; // node-major

  World(const Config& cfg, bool aged) : config(cfg), layout(detail::layout(cfg)) {
    detail::begin_tracing(config.trace, config.seed);
    for (std::uint32_t n = 0; n < layout.nodes; ++n) {
      os::NodeConfig nc = detail::node_config(layout, config.manager, config.seed, n);
      nc.aged_boot = aged; // a restore target skips aging — it gets overwritten
      nodes.push_back(std::make_unique<os::Node>(engine, std::move(nc)));
    }
    // Arm only after boot: the hugetlb reservation and module load assert
    // on allocation success and must never see injected failures.
    // Debug-mode audits cover the first node (injections are global; the
    // end-of-run audit walks every node).
    verify.emplace(config.verify, config.seed);
    verify->audit_on_fire(*nodes.front());
    for (std::uint32_t n = 0; n < layout.nodes; ++n) {
      detail::add_builds(builds, *nodes[n], config.commodity, config.seed, n);
    }
  }

  /// Let the builds reach steady state (page cache warm, fragmentation
  /// developing) before the workload launches.
  void age_to_warmup() {
    for (auto& build : builds) {
      build->start();
    }
    engine.run_until(layout.machine.cycles(detail::warmup_seconds(config)));
  }

  [[nodiscard]] std::vector<os::Node*> node_ptrs() {
    std::vector<os::Node*> out;
    for (auto& n : nodes) {
      out.push_back(n.get());
    }
    return out;
  }

  [[nodiscard]] std::vector<snapshot::BuildRef> build_refs() {
    std::vector<snapshot::BuildRef> refs;
    for (std::size_t b = 0; b < builds.size(); ++b) {
      refs.push_back(snapshot::BuildRef{
          builds[b].get(), static_cast<std::uint32_t>(b / config.commodity.builds)});
    }
    return refs;
  }

  /// The measurement tail every shape shares: run `actor` to completion
  /// under telemetry sampling, stop the builds, and complete the result
  /// `collect(t0)` builds with the engine count, telemetry, procfs view
  /// and verification accounting. Sampling brackets the workload: the
  /// first sample lands at t0 (= trace_t0), and daemon scheduling means
  /// the sampler never extends the run past completion. `probes` adds
  /// shape-specific series before sampling starts.
  template <typename Actor, typename Collect>
  auto measure(Actor& actor, Collect collect,
               const std::function<void(introspect::TelemetrySampler&)>& probes = {}) {
    const Cycles t0 = engine.now();
    introspect::TelemetrySampler sampler(
        engine, {config.introspect.sample_interval, config.introspect.max_samples});
    for (auto& n : nodes) {
      sampler.add_node(*n);
    }
    if (probes) {
      probes(sampler);
    }
    if (config.introspect.sampling()) {
      sampler.start();
    }
    actor.start([this] { engine.stop(); });
    engine.run();
    HPMMAP_ASSERT(actor.done(), "engine drained before the workload completed");

    for (auto& build : builds) {
      build->stop();
    }
    auto result = collect(t0);
    result.events_fired = engine.events_fired();
    result.telemetry = sampler.take();
    if (config.introspect.procfs_dump) {
      for (auto& n : nodes) {
        result.procfs_text += introspect::procfs_dump(*n);
      }
    }
    verify->finish(result, node_ptrs());
    return result;
  }
};

workloads::MpiJobConfig job_config(World<SingleNodeRunConfig>& w) {
  const SingleNodeRunConfig& config = w.config;
  workloads::MpiJobConfig jc;
  jc.app = detail::scaled_profile(config.app, w.layout.machine.clock_hz,
                                  config.footprint_scale, config.duration_scale);
  jc.policy = detail::policy_for(config.manager);
  jc.ranks = detail::placements(*w.nodes.front(), config.app_cores);
  return jc;
}

workloads::MpiJobConfig job_config(World<ScalingRunConfig>& w) {
  const ScalingRunConfig& config = w.config;
  workloads::MpiJobConfig jc;
  jc.app = detail::scaling_profile(config, w.layout);
  jc.policy = detail::policy_for(config.manager);
  for (auto& node : w.nodes) {
    for (const workloads::RankPlacement& p :
         detail::placements(*node, config.ranks_per_node)) {
      jc.ranks.push_back(p);
    }
  }
  jc.comm = cluster::ethernet_comm(cluster::EthernetSpec{}, w.layout.machine.clock_hz,
                                   config.nodes, Rng(config.seed).fork("net"));
  return jc;
}

/// The MPI measurement: one job over the world's nodes.
template <typename Config>
RunResult measure(World<Config>& w) {
  workloads::MpiJob job(w.engine, job_config(w));
  return w.measure(job, [&](Cycles t0) {
    return detail::collect(job, *w.nodes.front(), w.config.trace, t0, w.layout.machine.clock_hz);
  });
}

ServerRunResult measure(World<ServerRunConfig>& w) {
  const ServerRunConfig& config = w.config;
  const hw::MachineSpec& machine = w.layout.machine;
  os::Node& node = *w.nodes.front();
  const Rng rng(config.seed);

  // The schedule is generated before anything serves: a pure function of
  // (arrival config, clock, seed), so every manager replays the same one.
  serving::ArrivalConfig arrival = config.arrival;
  arrival.duration_seconds *= config.duration_scale;
  std::vector<serving::ScheduledRequest> schedule =
      serving::generate_schedule(arrival, machine.clock_hz, rng.fork("arrival"));

  workloads::ServerConfig service = config.service;
  service.policy = detail::policy_for(config.manager);
  service.zone = 0;
  if (service.budgets.empty()) {
    service.budgets = {
        {"lat<2ms", machine.cycles(0.002)},
        {"lat<10ms", machine.cycles(0.010)},
    };
  }
  workloads::ServerApp server(w.engine, node, std::move(service), std::move(schedule),
                              rng.fork("server"));
  profile::RequestProfiler profiler;
  if (config.attribution) {
    server.set_profiler(&profiler);
  }

  // Service-side probes: pure observers on the actor, so sampling stays
  // byte-identical-off-vs-on like every other telemetry source.
  const auto probes = [&](introspect::TelemetrySampler& sampler) {
    const std::string labels = "node=\"" + node.config().name + "\"";
    sampler.add_probe("hpmmap_server_queue_depth", labels, "gauge",
                      [&server] { return server.queue_depth_now(); });
    sampler.add_probe("hpmmap_server_in_flight", labels, "gauge",
                      [&server] { return server.in_flight_now(); });
    sampler.add_probe("hpmmap_server_shed_total", labels, "counter",
                      [&server] { return server.shed_total(); });
    sampler.add_probe("hpmmap_server_completed_total", labels, "counter",
                      [&server] { return server.completed_total(); });
  };
  const auto collect = [&](Cycles t0) {
    ServerRunResult result;
    result.runtime_seconds = machine.seconds(w.engine.now() - t0);
    result.clock_hz = machine.clock_hz;
    result.server = server.stats();
    result.faults = server.aggregate_faults();
    result.trace_t0 = t0;

    const serving::LatencyRecorder& lat = server.latency();
    const std::vector<double> q = lat.reservoir().quantiles({0.50, 0.95, 0.99, 0.999});
    result.tail.p50_us = result.tail.exact_p50_us = q[0];
    result.tail.p95_us = q[1];
    result.tail.p99_us = result.tail.exact_p99_us = q[2];
    result.tail.p999_us = result.tail.exact_p999_us = q[3];
    result.tail.mean_us = lat.stats().mean();
    result.tail.max_us = lat.stats().max();
    result.tail.samples = lat.stats().count();

    const serving::SloAccountant& slo = server.slo();
    for (std::size_t i = 0; i < slo.budget_count(); ++i) {
      SloOutcome o;
      o.label = slo.budget(i).label;
      o.budget_us = machine.seconds(slo.budget(i).budget) * 1e6;
      o.violations = slo.violations(i);
      result.slo.push_back(std::move(o));
    }
    result.slo_total = slo.total_violations();

    if (config.trace.on()) {
      trace::instant(trace::Category::kHarness, "run.end", 0, -1,
                     {trace::Arg::u64("completed", result.server.completed)});
      trace::disable_all();
      result.events = trace::recorder().snapshot();
      result.trace_dropped = trace::recorder().dropped();
    }
    if (config.attribution) {
      result.attribution = profiler.take();
    }
    return result;
  };
  return w.measure(server, collect, probes);
}

/// Boot `config`'s world, bring it to the warmup quiesce point — by
/// aging it, or by overwriting it with `image` — and measure.
template <typename Config>
auto run_world(const Config& config, const snapshot::WorldImage* image) {
  World<Config> world(config, /*aged=*/image == nullptr);
  if (image != nullptr) {
    snapshot::restore_world(*image, world.engine, world.node_ptrs(), world.build_refs());
  } else {
    world.age_to_warmup();
  }
  return measure(world);
}

template <typename Config>
snapshot::WorldImage capture(const Config& config) {
  World<Config> world(config, /*aged=*/true);
  world.age_to_warmup();
  return snapshot::capture_world(world.engine, world.node_ptrs(), world.build_refs());
}

} // namespace

std::vector<FaultSample> app_fault_samples(const RunResult& r) {
  std::vector<FaultSample> out;
  for (const trace::Event& e : r.events) {
    if (e.cat != trace::Category::kFault || e.phase != trace::Phase::kComplete ||
        e.name() != "fault") {
      continue;
    }
    if (std::find(r.app_pids.begin(), r.app_pids.end(), e.pid) == r.app_pids.end()) {
      continue;
    }
    FaultSample s;
    s.when = e.ts;
    s.cost = e.dur;
    s.pid = e.pid;
    bool have_kind = false;
    for (std::uint8_t a = 0; a < e.arg_count; ++a) {
      const trace::Arg& arg = e.args[a];
      if (arg.kind == trace::Arg::Kind::kStr && std::string_view{arg.name} == "kind") {
        if (const auto kind = detail::kind_from_label(arg.value.str)) {
          s.kind = *kind;
          have_kind = true;
        }
      }
    }
    if (have_kind) {
      out.push_back(s);
    }
  }
  // The ring holds push order; merges scheduled on the engine interleave,
  // so impose time order (pid breaks ties deterministically).
  std::sort(out.begin(), out.end(), [](const FaultSample& a, const FaultSample& b) {
    return a.when != b.when ? a.when < b.when : a.pid < b.pid;
  });
  return out;
}

RunResult run_single_node(const SingleNodeRunConfig& config) {
  return run_world(config, nullptr);
}

snapshot::WorldImage capture_single_node(const SingleNodeRunConfig& config) {
  return capture(config);
}

RunResult run_single_node(const SingleNodeRunConfig& config,
                          const snapshot::WorldImage& image) {
  return run_world(config, &image);
}

RunResult run_scaling(const ScalingRunConfig& config) {
  return run_world(config, nullptr);
}

snapshot::WorldImage capture_scaling(const ScalingRunConfig& config) {
  return capture(config);
}

RunResult run_scaling(const ScalingRunConfig& config, const snapshot::WorldImage& image) {
  return run_world(config, &image);
}

ServerRunResult run_server(const ServerRunConfig& config) {
  return run_world(config, nullptr);
}

snapshot::WorldImage capture_server(const ServerRunConfig& config) {
  return capture(config);
}

ServerRunResult run_server(const ServerRunConfig& config,
                           const snapshot::WorldImage& image) {
  return run_world(config, &image);
}

std::vector<introspect::TimeSeries> merged_telemetry(const std::vector<RunResult>& runs) {
  std::vector<introspect::TimeSeries> out;
  for (std::size_t t = 0; t < runs.size(); ++t) {
    const std::string trial = "trial=\"" + std::to_string(t) + "\"";
    for (const introspect::TimeSeries& s : runs[t].telemetry) {
      introspect::TimeSeries copy = s;
      copy.labels = s.labels.empty() ? trial : s.labels + "," + trial;
      out.push_back(std::move(copy));
    }
  }
  return out;
}

SmpRunResult run_smp(const SmpRunConfig& config) {
  detail::begin_tracing(config.trace, config.seed);

  hw::MachineSpec machine = hw::dell_r415();
  // Widen the socket grid to the requested core count; the R415's two
  // NUMA zones, clock and bandwidth model stay.
  machine.cores_per_socket = (config.cores + machine.sockets - 1) / machine.sockets;
  if (machine.total_cores() < config.cores) {
    machine.cores_per_socket = config.cores;
    machine.sockets = 1;
  }

  os::NodeConfig nc;
  nc.machine = machine;
  nc.thp_enabled = false; // the storm is a 4K study; THP is PR-orthogonal
  nc.aged_boot = false;   // pristine freelists: contention, not fragmentation
  nc.seed = config.seed;
  nc.name = "smp0";
  if (config.variant == SmpVariant::kHpmmap) {
    nc.hpmmap = core::ModuleConfig{};
  } else {
    mm::SmpConfig sc;
    sc.cores = config.cores;
    const bool modern = config.variant == SmpVariant::kLinuxToday;
    sc.pcp = config.pcp.value_or(modern);
    sc.sharded_pt_locks = config.sharded_pt_locks.value_or(modern);
    sc.batched_shootdowns = config.batched_shootdowns.value_or(modern);
    nc.smp = sc;
  }

  sim::Engine engine;
  os::Node node(engine, std::move(nc));
  detail::VerifySession verify(config.verify, config.seed);
  verify.audit_on_fire(node);

  workloads::SmpStormConfig sc;
  sc.cores = config.cores;
  sc.shared_process = config.variant != SmpVariant::kHpmmap;
  sc.policy = config.variant == SmpVariant::kHpmmap ? os::MmPolicy::kHpmmap
                                                    : os::MmPolicy::kLinuxPlain;
  sc.rounds = config.rounds;
  sc.slab_bytes = config.slab_bytes;
  workloads::SmpStorm storm(engine, node, sc);
  const Cycles t0 = engine.now();
  storm.start([&engine] { engine.stop(); });
  engine.run();
  HPMMAP_ASSERT(storm.done(), "engine drained before the storm completed");

  SmpRunResult result;
  result.cores = config.cores;
  result.pages_touched = storm.pages_touched();
  result.seconds = machine.seconds(storm.span_cycles());
  result.faults_per_sec =
      result.seconds > 0.0 ? static_cast<double>(result.pages_touched) / result.seconds : 0.0;
  result.clock_hz = machine.clock_hz;
  if (node.smp() != nullptr) {
    result.smp = node.smp()->stats();
  }
  result.faults = storm.aggregate_faults();
  result.events_fired = engine.events_fired();
  result.trace_t0 = t0;
  if (config.trace.on()) {
    trace::instant(trace::Category::kHarness, "run.end", 0, -1,
                   {trace::Arg::u64("runtime_cycles", storm.span_cycles())});
    trace::disable_all();
    result.events = trace::recorder().snapshot();
    result.trace_dropped = trace::recorder().dropped();
  }
  verify.finish(result, {&node});
  return result;
}

} // namespace hpmmap::harness
