#include "sim/parallel.hpp"

#include <algorithm>

namespace hpmmap::sim {

ParallelCoordinator::ParallelCoordinator(unsigned workers)
    : workers_(workers == 0
                   ? std::max(1u, std::thread::hardware_concurrency())
                   : workers) {}

ParallelCoordinator::~ParallelCoordinator() {
  if (!pool_.empty()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    start_cv_.notify_all();
    for (std::thread& t : pool_) {
      t.join();
    }
  }
}

std::size_t ParallelCoordinator::add_group(Engine& engine, GroupHooks hooks) {
  groups_.push_back(Group{&engine, std::move(hooks)});
  return groups_.size() - 1;
}

void ParallelCoordinator::slice(Group& group, const Body& body) {
  if (group.hooks.enter) {
    group.hooks.enter();
  }
  body(group);
  if (group.hooks.leave) {
    group.hooks.leave();
  }
}

void ParallelCoordinator::for_each_group(const Body& body) {
  const std::size_t n = groups_.size();
  if (workers_ <= 1 || n <= 1) {
    for (Group& group : groups_) {
      slice(group, body);
    }
    return;
  }
  if (pool_.empty()) {
    const unsigned spawned = static_cast<unsigned>(
        std::min<std::size_t>(workers_, n)) - 1; // controller participates
    pool_.reserve(spawned);
    for (unsigned w = 0; w < spawned; ++w) {
      pool_.emplace_back([this] { worker_loop(); });
    }
  }
  std::uint64_t gen;
  {
    std::lock_guard<std::mutex> lock(mu_);
    phase_body_ = &body;
    phase_next_ = 0;
    phase_done_ = 0;
    gen = ++phase_gen_;
  }
  start_cv_.notify_all();
  drain(&body, gen); // the controller drains alongside the pool
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this, n] { return phase_done_ == n; });
  phase_body_ = nullptr;
}

void ParallelCoordinator::drain(const Body* body, std::uint64_t gen) {
  while (true) {
    std::size_t g;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (phase_gen_ != gen || phase_next_ >= groups_.size()) {
        return;
      }
      g = phase_next_++;
    }
    slice(groups_[g], *body);
    std::lock_guard<std::mutex> lock(mu_);
    if (++phase_done_ == groups_.size()) {
      done_cv_.notify_all();
    }
  }
}

void ParallelCoordinator::worker_loop() {
  std::uint64_t seen_gen = 0;
  while (true) {
    const Body* body;
    {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock, [this, seen_gen] {
        return shutdown_ || (phase_gen_ != seen_gen && phase_body_ != nullptr);
      });
      if (shutdown_) {
        return;
      }
      seen_gen = phase_gen_;
      body = phase_body_;
    }
    drain(body, seen_gen);
  }
}

void ParallelCoordinator::run_phase() {
  for_each_group([](Group& g) { g.engine->run(); });
}

void ParallelCoordinator::run_phase_until(Cycles until) {
  for_each_group([until](Group& g) { g.engine->run_until(until); });
}

} // namespace hpmmap::sim
