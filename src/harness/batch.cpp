#include "harness/batch.hpp"

#include <algorithm>

#include "harness/detail.hpp"

namespace hpmmap::harness {

namespace {

std::atomic<unsigned> g_default_jobs{1};

// The one-run entry points of each config type, for the generic fan-outs.
RunResult run_one(const SingleNodeRunConfig& c) { return run_single_node(c); }
RunResult run_one(const ScalingRunConfig& c) { return run_scaling(c); }
ServerRunResult run_one(const ServerRunConfig& c) { return run_server(c); }
SmpRunResult run_one(const SmpRunConfig& c) { return run_smp(c); }
RunResult run_one(const SingleNodeRunConfig& c, const snapshot::WorldImage& image) {
  return run_single_node(c, image);
}
RunResult run_one(const ScalingRunConfig& c, const snapshot::WorldImage& image) {
  return run_scaling(c, image);
}
snapshot::WorldImage capture(const SingleNodeRunConfig& c) { return capture_single_node(c); }
snapshot::WorldImage capture(const ScalingRunConfig& c) { return capture_scaling(c); }

/// The one config -> result map every fan-out runs on.
template <typename Config, typename Run>
auto map_configs(const std::vector<Config>& configs, unsigned jobs, Run run) {
  using R = decltype(run(configs.front()));
  std::vector<std::function<R()>> tasks;
  tasks.reserve(configs.size());
  for (const Config& cfg : configs) {
    tasks.push_back([cfg, run] { return run(cfg); });
  }
  return BatchRunner(jobs).map(std::move(tasks));
}

bool same_verify(const VerifyConfig& a, const VerifyConfig& b) {
  for (std::size_t i = 0; i < verify::kInjectPointCount; ++i) {
    const verify::PointPlan& p = a.inject.points[i];
    const verify::PointPlan& q = b.inject.points[i];
    if (p.first != q.first || p.period != q.period || p.count != q.count ||
        p.probability != q.probability || p.magnitude != q.magnitude) {
      return false;
    }
  }
  return a.audit == b.audit && a.audit_on_injection == b.audit_on_injection;
}

/// Two configs shape the same pre-measurement world iff every field that
/// acts before the job launches matches (the snapshot contract in
/// experiment.hpp). Scaling runs additionally pin the cluster shape;
/// only app and duration_scale act after their capture point.
template <JobConfig Config>
bool same_world(const Config& a, const Config& b) {
  bool same = a.manager == b.manager && a.commodity.builds == b.commodity.builds &&
              a.commodity.jobs_per_build == b.commodity.jobs_per_build &&
              a.seed == b.seed && a.footprint_scale == b.footprint_scale &&
              a.warmup_seconds == b.warmup_seconds &&
              a.trace.categories == b.trace.categories &&
              a.trace.capacity == b.trace.capacity && same_verify(a.verify, b.verify);
  if constexpr (std::is_same_v<Config, ScalingRunConfig>) {
    same = same && a.nodes == b.nodes && a.ranks_per_node == b.ranks_per_node;
  }
  return same;
}

/// The one trial fan-out. With `group` on, configs sharing a
/// pre-measurement world form one group (first-appearance order); with
/// it off every config is alone in its group. One task per (group,
/// trial): a singleton runs straight, a larger group ages once, captures
/// and resumes every member. Either way each config's trials fold in t
/// order, so grouping never changes a bit of the output.
template <JobConfig Config>
std::vector<SeriesPoint> fan_out(const std::vector<Config>& configs, std::uint32_t trials,
                                 unsigned jobs, bool group) {
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const auto shared = std::find_if(groups.begin(), groups.end(), [&](const auto& g) {
      return group && same_world(configs[g.front()], configs[i]);
    });
    if (shared == groups.end()) {
      groups.push_back({i});
    } else {
      shared->push_back(i);
    }
  }
  std::vector<std::function<std::vector<detail::TrialOutcome>()>> tasks;
  tasks.reserve(groups.size() * trials);
  for (const std::vector<std::size_t>& g : groups) {
    for (std::uint32_t t = 0; t < trials; ++t) {
      std::vector<Config> members;
      members.reserve(g.size());
      for (const std::size_t idx : g) {
        Config cfg = configs[idx];
        cfg.seed = trial_seeds(cfg.seed, trials)[t];
        members.push_back(std::move(cfg));
      }
      tasks.push_back([members]() {
        std::vector<detail::TrialOutcome> out;
        out.reserve(members.size());
        if (members.size() == 1) {
          out.push_back(detail::outcome(run_one(members.front())));
        } else {
          const snapshot::WorldImage image = capture(members.front());
          for (const Config& cfg : members) {
            out.push_back(detail::outcome(run_one(cfg, image)));
          }
        }
        return out;
      });
    }
  }
  const std::vector<std::vector<detail::TrialOutcome>> outcomes =
      BatchRunner(jobs).map(std::move(tasks));
  std::vector<std::vector<detail::TrialOutcome>> per_config(configs.size());
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    for (std::uint32_t t = 0; t < trials; ++t) {
      for (std::size_t m = 0; m < groups[gi].size(); ++m) {
        per_config[groups[gi][m]].push_back(outcomes[gi * trials + t][m]);
      }
    }
  }
  std::vector<SeriesPoint> points;
  points.reserve(configs.size());
  for (const std::vector<detail::TrialOutcome>& trial_outcomes : per_config) {
    points.push_back(detail::fold_trials(trial_outcomes));
  }
  return points;
}

} // namespace

unsigned hardware_jobs() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void set_default_jobs(unsigned jobs) noexcept {
  g_default_jobs.store(jobs == 0 ? hardware_jobs() : jobs, std::memory_order_relaxed);
}

unsigned default_jobs() noexcept {
  return g_default_jobs.load(std::memory_order_relaxed);
}

std::vector<std::uint64_t> trial_seeds(std::uint64_t base, std::uint32_t trials) {
  std::vector<std::uint64_t> seeds;
  seeds.reserve(trials);
  std::uint64_t s = base;
  for (std::uint32_t t = 0; t < trials; ++t) {
    s = s * 2654435761ull + t + 1;
    seeds.push_back(s);
  }
  return seeds;
}

template <JobConfig Config>
SeriesPoint run_trials(const Config& config, std::uint32_t trials, unsigned jobs) {
  return fan_out(std::vector<Config>{config}, trials, jobs, /*group=*/false)[0];
}

template <JobConfig Config>
std::vector<SeriesPoint> run_trials_batch(const std::vector<Config>& configs,
                                          std::uint32_t trials, unsigned jobs) {
  return fan_out(configs, trials, jobs, /*group=*/false);
}

template <JobConfig Config>
std::vector<SeriesPoint> run_trials_snapshotted(const std::vector<Config>& configs,
                                                std::uint32_t trials, unsigned jobs) {
  return fan_out(configs, trials, jobs, /*group=*/true);
}

template <typename Config>
std::vector<typename RunOf<Config>::Result> run_batch(const std::vector<Config>& configs,
                                                      unsigned jobs) {
  return map_configs(configs, jobs, [](const Config& c) { return run_one(c); });
}

std::vector<ServerRunResult> run_server_trials(const ServerRunConfig& config,
                                               std::uint32_t trials, unsigned jobs) {
  return map_configs(trial_seeds(config.seed, trials), jobs, [config](std::uint64_t seed) {
    ServerRunConfig trial_cfg = config;
    trial_cfg.seed = seed;
    return run_server(trial_cfg);
  });
}

template SeriesPoint run_trials(const SingleNodeRunConfig&, std::uint32_t, unsigned);
template SeriesPoint run_trials(const ScalingRunConfig&, std::uint32_t, unsigned);
template std::vector<SeriesPoint> run_trials_batch(const std::vector<SingleNodeRunConfig>&,
                                                   std::uint32_t, unsigned);
template std::vector<SeriesPoint> run_trials_batch(const std::vector<ScalingRunConfig>&,
                                                   std::uint32_t, unsigned);
template std::vector<SeriesPoint> run_trials_snapshotted(
    const std::vector<SingleNodeRunConfig>&, std::uint32_t, unsigned);
template std::vector<SeriesPoint> run_trials_snapshotted(const std::vector<ScalingRunConfig>&,
                                                         std::uint32_t, unsigned);
template std::vector<RunResult> run_batch(const std::vector<SingleNodeRunConfig>&, unsigned);
template std::vector<RunResult> run_batch(const std::vector<ScalingRunConfig>&, unsigned);
template std::vector<ServerRunResult> run_batch(const std::vector<ServerRunConfig>&, unsigned);
template std::vector<SmpRunResult> run_batch(const std::vector<SmpRunConfig>&, unsigned);

} // namespace hpmmap::harness
