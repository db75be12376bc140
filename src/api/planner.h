// The cached schedule planner.
//
// Planning a partial-search schedule is an O(sqrt(N) * sqrt(N/K)) model
// search (partial/optimizer.h) — seconds of CPU at n = 32 — while running
// the planned schedule on the symmetry engine is microseconds. A service
// answering repeated requests must therefore never re-derive a schedule it
// has already derived: Planner memoizes optimize_schedule results keyed by
// (N, K, M, min_success) behind a mutex, so concurrent Engine::run calls
// share one deterministic plan and repeated specs skip the search entirely
// (the second request's planning time is ~0).
//
// The cache is a bounded LRU (default 1024 plans): a long-lived service
// sweeping many problem shapes keeps its hottest schedules and evicts the
// coldest instead of growing without limit. hits() / misses() / evictions()
// expose the counters a deployment watches to size the bound.
#pragma once

#include <cstdint>

#include "common/lru.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "partial/optimizer.h"
#include "qsim/run_control.h"

namespace pqs {

/// The cache key: everything optimize_schedule's answer depends on.
struct PlanKey {
  std::uint64_t n_items = 0;
  std::uint64_t n_blocks = 0;
  std::uint64_t n_marked = 1;
  double min_success = 0.0;

  friend bool operator<(const PlanKey& a, const PlanKey& b) {
    if (a.n_items != b.n_items) return a.n_items < b.n_items;
    if (a.n_blocks != b.n_blocks) return a.n_blocks < b.n_blocks;
    if (a.n_marked != b.n_marked) return a.n_marked < b.n_marked;
    return a.min_success < b.min_success;
  }
};

/// One planning answer plus how this lookup got it.
struct Plan {
  partial::IntegerOptimum schedule;
  bool cache_hit = false;      ///< this lookup was served from the cache
  std::uint64_t plan_ns = 0;   ///< time spent searching (~0 on a hit)
};

/// Thread-safe memoized schedule planner. const methods are safe to call
/// concurrently; the cache is internally synchronized.
class Planner {
 public:
  static constexpr std::size_t kDefaultCapacity = 1024;

  explicit Planner(std::size_t capacity = kDefaultCapacity)
      : cache_(capacity) {}

  /// The (possibly cached) schedule for (N, K, M, min_success). On a miss
  /// the optimize_schedule search runs OUTSIDE any lock (concurrent misses
  /// on the same key may race to compute; the result is deterministic, so
  /// last-writer-wins is safe and every caller returns the same plan).
  /// `control`, when given, lands a span event on the request's timeline —
  /// `plan.cache_hit` or `plan.computed` — so a trace shows where the
  /// schedule came from.
  Plan schedule(std::uint64_t n_items, std::uint64_t n_blocks,
                double min_success, std::uint64_t n_marked = 1,
                const qsim::RunControl* control = nullptr) const;

  /// Re-home the hit/miss counters in `registry` (as `plan.cache_hits` /
  /// `plan.cache_misses`), replacing the private fallback counters. Call
  /// before traffic (Service does, at construction); counts accumulated
  /// so far stay behind in the fallback.
  void bind_metrics(obs::MetricsRegistry& registry);

  std::uint64_t hits() const { return hits_->value(); }
  std::uint64_t misses() const { return misses_->value(); }
  /// Plans dropped by the LRU bound since construction.
  std::uint64_t evictions() const;
  std::uint64_t size() const;

 private:
  /// Guards the LruMap (which is deliberately lock-free itself — see
  /// common/lru.h); the hit/miss counters are obs::Counters (relaxed
  /// atomics) so a hot cache path can bump them outside the critical
  /// section. They default to the private fallback pair and re-home into
  /// a shared registry via bind_metrics.
  mutable Mutex mutex_;
  mutable LruMap<PlanKey, partial::IntegerOptimum> cache_
      PQS_GUARDED_BY(mutex_);
  mutable obs::Counter own_hits_;
  mutable obs::Counter own_misses_;
  obs::Counter* hits_ = &own_hits_;
  obs::Counter* misses_ = &own_misses_;
};

}  // namespace pqs
