// pqs::obs — the unified metrics registry.
//
// MetricsRegistry is the process's one telemetry surface: a catalog of
// named instruments that every subsystem records into and every reader
// (the `stats` and `metrics` wire ops, tests, benches) reads from:
//
//   * Counter   — a monotonic uint64 (events since birth): relaxed
//                 fetch_add on the hot path, no lock, no allocation.
//   * Gauge     — a point-in-time int64 (queue depth, cache size): relaxed
//                 store; writers own the value, the registry just exposes it.
//   * AtomicHistogram — the lock-free twin of common/histogram.h's
//                 LogHistogram: same 252 log buckets, atomic per-bucket
//                 adds, snapshot() reconstructs a plain LogHistogram for
//                 serialization and merging.
//
// Naming scheme: dotted lowercase paths, `<subsystem>.<event>` —
// `service.submitted`, `plan.cache_hits`, `net.accepted_connections`,
// `journal.accepted_appends`, `latency.queue_ns`. Names are registered once
// (first use) and the instrument pointer is then stable for the registry's
// lifetime, so hot paths hold the pointer and never touch the name map
// again.
//
// Ownership: a Service (and Planner, Journal, Acceptor...) takes an
// optional `MetricsRegistry*`; null means "own a private registry" — unit
// tests build many Services per process and assert exact per-instance
// counts, which a mandatory process-global would cross-contaminate.
// pqs_serve passes MetricsRegistry::global() everywhere so one snapshot
// covers service + net + journal, which is what the `metrics` wire op
// dumps and pqs_router merges fleet-wide.
//
// snapshot() emits canonical JSON shaped for exact merging:
//   {"counters":{name:N,...},"gauges":{name:G,...},
//    "histograms":{name:{count,max,p50,p90,p99,buckets},...}}
// merge_snapshots sums counters and gauges by name and folds histograms
// through LogHistogram::from_json + merge, so merged bucket counts are
// EXACT sums and recomputed percentiles are within one bucket of any
// shard's own estimate (pinned by tests/test_obs.cpp).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/json.h"
#include "common/thread_annotations.h"

namespace pqs::obs {

/// Monotonic event counter. Copy-proof (registry-owned); increments are
/// relaxed atomics — counters are statistics, not synchronization.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time level (queue depth, cache size). Writers own the value;
/// set() overwrites, add() nudges (both relaxed).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Lock-free LogHistogram twin: identical bucket layout, atomic per-bucket
/// counts so the service's finish() path records without taking the
/// registry's mutex. max is maintained with a CAS loop (rare retries — only
/// when a new global max lands). snapshot() is NOT an atomic cut across
/// buckets; concurrent recorders may leave a snapshot one event ahead in
/// one bucket vs the total — harmless for dashboards, and quiescent
/// snapshots (every test, every bench) are exact.
class AtomicHistogram {
 public:
  static constexpr std::size_t kBuckets = LogHistogram::kBuckets;

  void record(std::uint64_t value) noexcept {
    counts_[LogHistogram::bucket_index(value)].fetch_add(
        1, std::memory_order_relaxed);
    std::uint64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
  }

  /// Reconstruct a plain LogHistogram (serializable, mergeable) from the
  /// live buckets.
  LogHistogram snapshot() const {
    LogHistogram histogram;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const std::uint64_t n = counts_[i].load(std::memory_order_relaxed);
      if (n != 0) {
        histogram.add_to_bucket(i, n);
      }
    }
    histogram.note_max(max_.load(std::memory_order_relaxed));
    return histogram;
  }

  std::uint64_t count() const noexcept {
    std::uint64_t total = 0;
    for (const auto& bucket : counts_) {
      total += bucket.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
  std::atomic<std::uint64_t> max_{0};
};

/// The catalog. Registration (name -> instrument) takes a mutex once per
/// name; the returned reference is stable for the registry's lifetime, so
/// every hot path caches the pointer at construction and thereafter only
/// touches lock-free instrument state.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create by name. Two callers registering the same name get the
  /// SAME instrument (that is the point: the journal and a test harness
  /// can both watch `journal.accepted_appends`).
  Counter& counter(const std::string& name) PQS_EXCLUDES(mutex_);
  Gauge& gauge(const std::string& name) PQS_EXCLUDES(mutex_);
  AtomicHistogram& histogram(const std::string& name) PQS_EXCLUDES(mutex_);

  /// Canonical snapshot of every registered instrument (shape above).
  /// Gauges are whatever their writers last stored — callers wanting fresh
  /// levels (queue depth, cache sizes) refresh them first
  /// (Service::metrics_snapshot does exactly that).
  Json snapshot() const PQS_EXCLUDES(mutex_);

  /// The process-wide registry pqs_serve wires through service, net, and
  /// journal so one `metrics` op answers for the whole process. Library
  /// code NEVER reaches for this implicitly — tests depend on private
  /// per-instance registries staying isolated.
  static MetricsRegistry& global();

 private:
  mutable Mutex mutex_;
  // std::map: snapshot() iterates sorted, keeping the dump canonical
  // without a per-snapshot sort. unique_ptr: instrument addresses survive
  // rehashing-free forever (atomics are not movable anyway).
  std::map<std::string, std::unique_ptr<Counter>> counters_
      PQS_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      PQS_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<AtomicHistogram>> histograms_
      PQS_GUARDED_BY(mutex_);
};

/// Fold fleet-member snapshots into one aggregate view: counters and
/// gauges sum by name, histograms rebuild via LogHistogram::from_json and
/// merge element-wise (exact bucket counts), percentiles recomputed from
/// the merged buckets. Instruments missing from some shards contribute
/// only where present. This is the router's `metrics` fan-out reducer and
/// the fleet-merge test's subject.
Json merge_snapshots(const std::vector<Json>& snapshots);

}  // namespace pqs::obs
