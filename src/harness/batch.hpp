// Parallel batch execution for independent simulation runs.
//
// The paper's evaluation is a pile of embarrassingly parallel sweeps —
// Figure 7's co-location grid, Figure 8's 8-node scaling runs, the
// ablation matrices, multi-seed trial loops — yet each simulation is
// strictly single-threaded. BatchRunner fans independent RunConfigs out
// across a fixed worker pool; every run binds the thread-local run
// context (trace registry, metric registry, fault injector, engine
// clock) of the worker it lands on, so runs never share mutable state.
//
// Determinism contract: results are merged in task-submission (seed)
// order, and every task derives its RNG stream from its own config —
// the merged output is byte-identical for any --jobs value, including 1.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"

namespace hpmmap::harness {

/// max(1, std::thread::hardware_concurrency).
[[nodiscard]] unsigned hardware_jobs() noexcept;

/// Process-wide default parallelism of run_trials and run_batch when no
/// jobs value is given. 0 = hardware_jobs(). The library
/// default is 1 (serial) so embedders opt in; the CLI tools set it from
/// --jobs (whose own default is the hardware concurrency).
void set_default_jobs(unsigned jobs) noexcept;
[[nodiscard]] unsigned default_jobs() noexcept;

class BatchRunner {
 public:
  /// `jobs` == 0 selects hardware_jobs().
  explicit BatchRunner(unsigned jobs = 0)
      : jobs_(jobs == 0 ? hardware_jobs() : jobs) {}

  [[nodiscard]] unsigned jobs() const noexcept { return jobs_; }

  /// Run every task on the pool and return the results in task order
  /// (never completion order). The calling thread participates as a
  /// worker. The first task exception (lowest task index) is rethrown
  /// after the pool drains.
  template <typename R>
  std::vector<R> map(std::vector<std::function<R()>> tasks) {
    std::vector<R> results(tasks.size());
    if (tasks.empty()) {
      return results;
    }
    const unsigned workers =
        static_cast<unsigned>(std::min<std::size_t>(jobs_, tasks.size()));
    std::vector<std::exception_ptr> errors(tasks.size());
    if (workers <= 1) {
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        run_one(tasks, results, errors, i);
      }
    } else {
      std::atomic<std::size_t> next{0};
      const auto drain = [&]() noexcept {
        for (std::size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) <
                            tasks.size();) {
          run_one(tasks, results, errors, i);
        }
      };
      std::vector<std::thread> pool;
      pool.reserve(workers - 1);
      for (unsigned w = 1; w < workers; ++w) {
        pool.emplace_back(drain);
      }
      drain();
      for (std::thread& t : pool) {
        t.join();
      }
    }
    for (std::exception_ptr& err : errors) {
      if (err) {
        std::rethrow_exception(err);
      }
    }
    return results;
  }

 private:
  template <typename R>
  static void run_one(std::vector<std::function<R()>>& tasks, std::vector<R>& results,
                      std::vector<std::exception_ptr>& errors, std::size_t i) {
    try {
      results[i] = tasks[i]();
    } catch (...) {
      errors[i] = std::current_exception();
    }
  }

  unsigned jobs_;
};

/// The seed sequence run_trials feeds trial t — the serial recurrence
/// s_{t+1} = s_t * 2654435761 + t + 1, precomputed so trials can run on
/// any thread and still merge byte-identically in t order.
[[nodiscard]] std::vector<std::uint64_t> trial_seeds(std::uint64_t base,
                                                     std::uint32_t trials);

/// The config types whose runs are MPI jobs and fold into SeriesPoints.
template <typename Config>
concept JobConfig =
    std::is_same_v<Config, SingleNodeRunConfig> || std::is_same_v<Config, ScalingRunConfig>;

/// Mean/stdev of runtime over trial_seeds(config.seed, trials) — one
/// point of Figure 7/8. Byte-identical for every jobs value (0 =
/// hardware).
template <JobConfig Config>
[[nodiscard]] SeriesPoint run_trials(const Config& config, std::uint32_t trials,
                                     unsigned jobs = default_jobs());

/// Whole-sweep fan-out: one SeriesPoint per config, parallelized at
/// (config, trial) granularity so a figure sweep keeps every worker busy
/// even with few trials per point. Output order == input order.
template <JobConfig Config>
[[nodiscard]] std::vector<SeriesPoint> run_trials_batch(const std::vector<Config>& configs,
                                                        std::uint32_t trials,
                                                        unsigned jobs = 0);

/// run_trials_batch with amortized aging (DESIGN.md §12.4): configs that
/// shape the same pre-measurement world (everything matching except the
/// measurement-phase fields — see the snapshot contract in
/// experiment.hpp; scaling configs also pin nodes and ranks_per_node)
/// are grouped, each group's world is aged ONCE per trial seed and
/// captured, and every member resumes from the captured image. Singleton
/// groups run straight. Byte-identical to run_trials_batch for any jobs
/// value; an N-member group pays for aging once instead of N times.
template <JobConfig Config>
[[nodiscard]] std::vector<SeriesPoint> run_trials_snapshotted(
    const std::vector<Config>& configs, std::uint32_t trials, unsigned jobs = 0);

/// The result type of one run of each config type.
template <typename Config>
struct RunOf;
template <>
struct RunOf<SingleNodeRunConfig> { using Result = RunResult; };
template <>
struct RunOf<ScalingRunConfig> { using Result = RunResult; };
template <>
struct RunOf<ServerRunConfig> { using Result = ServerRunResult; };
template <>
struct RunOf<SmpRunConfig> { using Result = SmpRunResult; };

/// Fan a config list out one run per task; full results (trace buffers
/// included) in input order, byte-identical for any jobs value.
template <typename Config>
[[nodiscard]] std::vector<typename RunOf<Config>::Result> run_batch(
    const std::vector<Config>& configs, unsigned jobs = default_jobs());

/// Serving trials: full per-trial results in trial-seed order; trial t
/// uses trial_seeds(config.seed, trials)[t].
[[nodiscard]] std::vector<ServerRunResult> run_server_trials(
    const ServerRunConfig& config, std::uint32_t trials, unsigned jobs = 0);

} // namespace hpmmap::harness
