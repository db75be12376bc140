#include "api/planner.h"

#include "common/timing.h"

namespace pqs {

Plan Planner::schedule(std::uint64_t n_items, std::uint64_t n_blocks,
                       double min_success, std::uint64_t n_marked,
                       const qsim::RunControl* control) const {
  const PlanKey key{n_items, n_blocks, n_marked, min_success};
  {
    LockGuard lock(mutex_);
    if (const auto* found = cache_.find(key)) {
      hits_->add();
      if (control != nullptr) {
        control->span("plan.cache_hit");
      }
      return Plan{*found, /*cache_hit=*/true, 0};
    }
  }

  // Miss: search outside the lock so one slow plan does not serialize every
  // other request. optimize_schedule is deterministic, so racing computers
  // agree and last-writer-wins below is safe.
  Stopwatch watch;
  const auto schedule =
      partial::optimize_schedule(n_items, n_blocks, min_success, n_marked);
  const std::uint64_t plan_ns = watch.nanos();
  misses_->add();
  if (control != nullptr) {
    control->span("plan.computed");
  }

  LockGuard lock(mutex_);
  const auto& stored = cache_.put(key, schedule);
  return Plan{stored, /*cache_hit=*/false, plan_ns};
}

std::uint64_t Planner::evictions() const {
  LockGuard lock(mutex_);
  return cache_.evictions();
}

std::uint64_t Planner::size() const {
  LockGuard lock(mutex_);
  return cache_.size();
}

void Planner::bind_metrics(obs::MetricsRegistry& registry) {
  hits_ = &registry.counter("plan.cache_hits");
  misses_ = &registry.counter("plan.cache_misses");
}

}  // namespace pqs
