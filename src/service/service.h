// pqs::Service — the asynchronous, cancellable job layer over pqs::Engine.
//
// Engine::run answers one request on the caller's thread; a production
// deployment has ten thousand requests in flight and cannot burn a thread
// per call. Service is the missing piece: submit(spec) enqueues a job on a
// bounded FIFO+priority queue served by a fixed worker pool and returns a
// JobHandle immediately — status / wait / cancel / progress, the full job
// lifecycle:
//
//     queued ── worker picks up ──> running ──> done
//        │                            │   └───> failed   (adapter threw)
//        └────────── cancel ──────────┴───────> cancelled
//
// Two request-deduplication layers sit in front of the queue:
//   * request coalescing — concurrent submits whose canonical specs match
//     (api::canonicalize: every result-relevant field, marked sets
//     materialized, thread counts ignored) ATTACH to the one in-flight
//     execution; the driver runs once and every attached handle receives
//     the same SearchReport.
//   * a result LRU — a spec resubmitted after completion is served from
//     the cache without executing anything.
//
// Cancellation is real, not advisory: every job owns a qsim::RunControl
// that Engine::run threads through the adapters into the shot loops, so
// cancel() stops a running 2^30-item sweep within one shot-batch.
// Coalescing-aware: cancelling ONE of several attached handles only
// detaches that caller (its handle reads kCancelled); the underlying
// execution stops when the LAST attached handle cancels. A cancelled
// handle never reports kDone.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "common/check.h"
#include "common/lru.h"
#include "common/thread_annotations.h"
#include "common/timing.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qsim/run_control.h"

namespace pqs {

class Journal;  // service/journal.h — the optional write-ahead journal

enum class JobStatus { kQueued, kRunning, kDone, kCancelled, kFailed };

std::string_view to_string(JobStatus status);

/// Thrown by submit() when the bounded queue is at capacity. A distinct type
/// (not a generic CheckFailure) because overload is the one submit failure a
/// front-end must map to an explicit `overloaded` rejection event instead of
/// a request error — admission control is load signaling, not a bug report.
class OverloadedError : public CheckFailure {
 public:
  explicit OverloadedError(const std::string& what) : CheckFailure(what) {}
};

struct ServiceOptions {
  /// Worker threads executing jobs (>= 1).
  unsigned threads = 2;
  /// Most jobs allowed to WAIT in the queue; a submit beyond this throws
  /// (bounded queues surface overload at the edge instead of growing RSS).
  std::size_t queue_capacity = 256;
  /// Completed SearchReports kept for repeat submits (LRU).
  std::size_t result_cache_capacity = 128;
  /// Bound of the shared Engine's plan cache.
  std::size_t plan_cache_capacity = Planner::kDefaultCapacity;
  /// Optional write-ahead journal (service/journal.h). When set, every
  /// fresh execution appends an `accepted` record BEFORE submit returns
  /// (coalesced attachments and cache hits ride the original record) and a
  /// completion marker when it settles — except during shutdown, where
  /// markers are deliberately suppressed so a restart replays the
  /// interrupted jobs.
  std::shared_ptr<Journal> journal;
  /// Where this Service registers its instruments (obs/metrics.h). Null —
  /// the default — means a PRIVATE registry owned by the Service: unit
  /// tests build many Services per process and assert exact per-instance
  /// counts, which a shared registry would cross-contaminate. pqs_serve
  /// passes &obs::MetricsRegistry::global() so service, net, and journal
  /// telemetry land in one fleet-scrapable catalog.
  obs::MetricsRegistry* metrics = nullptr;
  /// Request tracing (obs/trace.h): ring capacity, slow threshold. The
  /// default keeps tracing ON (capacity 256, slow log off) — the bench
  /// pins the enabled-path cost under 1%; set trace.capacity = 0 to
  /// reduce a job to the bare null-check path.
  obs::TraceStoreOptions trace;
};

namespace detail {

/// The shared state of one job. Lifecycle fields are guarded by `mutex`
/// (machine-checked: common/thread_annotations.h); the RunControl and the
/// attachment counter are lock-free so the shot loops and cancel() never
/// contend with waiters. Lock order where both are held: Service::mutex_
/// before Job::mutex, never the reverse.
struct Job {
  SearchSpec spec;   ///< canonicalized: marked materialized, no predicate
  std::string key;   ///< api::canonicalize(spec).key
  /// Queue position; written only by Service with Service::mutex_ held.
  int priority = 0;
  std::uint64_t seq = 0;
  /// Journal record id of this execution's `accepted` line (0 = the
  /// Service has no journal, or the job was served from the result cache
  /// and executed nothing). Written once in submit() before the job is
  /// shared; immutable afterwards.
  std::uint64_t journal_id = 0;

  qsim::RunControl control;
  std::atomic<std::uint64_t> attached{0};  ///< live uncancelled handles
  Stopwatch queued_at;                     ///< started at submit
  /// This execution's span timeline, or null (tracing disabled, or the
  /// job was served from the result cache and executed nothing). Written
  /// once in submit() before the job is shared — same contract as
  /// journal_id — and also reachable through control's SpanSink.
  std::shared_ptr<obs::Trace> trace;

  mutable Mutex mutex;
  std::condition_variable_any cv;
  JobStatus status PQS_GUARDED_BY(mutex) = JobStatus::kQueued;
  SearchReport report PQS_GUARDED_BY(mutex);  // valid once kDone
  std::string error PQS_GUARDED_BY(mutex);    // valid once kFailed
};

}  // namespace detail

/// One caller's attachment to a job. Handles are cheap to copy (copies
/// share the attachment); independent submits of the same spec get
/// independent attachments to the same underlying job.
class JobHandle {
 public:
  /// Lifecycle state as seen by THIS handle: a cancelled handle reads
  /// kCancelled even if the coalesced execution later completes for the
  /// other attached callers.
  JobStatus status() const;
  /// True once status() is kDone / kCancelled / kFailed.
  bool finished() const;
  /// Completed fraction of the underlying execution in [0, 1].
  double progress() const;

  /// Block until finished; returns the final status.
  JobStatus wait() const;
  /// Block up to `timeout`; returns the (possibly still running) status.
  JobStatus wait_for(std::chrono::milliseconds timeout) const;

  /// Cancel this attachment. Queued jobs never start; a running job stops
  /// at its next checkpoint — unless other callers are still attached, in
  /// which case only this handle detaches and the execution continues for
  /// them. Idempotent.
  void cancel();

  /// The report. Requires status() == kDone (throws otherwise).
  const SearchReport& report() const;
  /// The failure message. Requires status() == kFailed (throws otherwise).
  const std::string& error() const;

  /// The canonicalized spec this job executes and its coalescing key.
  const SearchSpec& spec() const;
  const std::string& key() const;

  /// The trace id of the underlying execution (0 = untraced: tracing
  /// disabled, or served from the result cache). Coalesced handles share
  /// the execution's id.
  std::uint64_t trace_id() const;
  /// The live span timeline (null when untraced). Spans keep arriving
  /// while the job runs; obs::Trace reads are internally synchronized.
  std::shared_ptr<const obs::Trace> trace() const;

 private:
  friend class Service;
  JobHandle(std::shared_ptr<detail::Job> job,
            std::shared_ptr<std::atomic<bool>> cancelled)
      : job_(std::move(job)), cancelled_(std::move(cancelled)) {}

  JobStatus status_locked() const PQS_REQUIRES(job_->mutex);

  std::shared_ptr<detail::Job> job_;
  std::shared_ptr<std::atomic<bool>> cancelled_;  ///< this attachment only
};

class Service {
 public:
  /// A service over the built-in registry (all 13 drivers).
  explicit Service(ServiceOptions options = {});
  /// A service over a caller-assembled registry (custom algorithms — the
  /// hook the coalescing tests use to count driver executions).
  Service(ServiceOptions options, Registry registry);

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Cancels everything still queued or running, then joins the workers.
  ~Service();

  /// Enqueue one request (validated here, synchronously — a malformed spec
  /// throws at the submission site, not inside a worker). Higher priority
  /// runs first; FIFO within a priority level; a coalesced submit promotes
  /// the shared queued job to the highest attached priority. Throws when
  /// the queue is at capacity. Predicate specs are materialized here, once.
  JobHandle submit(const SearchSpec& spec, int priority = 0);

  /// Jobs waiting in the queue right now.
  std::size_t queue_depth() const;
  const Engine& engine() const { return engine_; }
  const ServiceOptions& options() const { return options_; }

  /// The registry this Service's instruments live in: the options-supplied
  /// one, or the private per-instance fallback.
  obs::MetricsRegistry& metrics() const { return *metrics_; }
  /// Refresh the sampled gauges (queue depth, cache sizes and evictions)
  /// and return a full registry snapshot — what the `metrics` wire op
  /// dumps and pqs_router merges fleet-wide.
  Json metrics_snapshot() const;
  /// The ring of completed request traces (obs/trace.h); the `trace` wire
  /// op reads timelines out of here.
  obs::TraceStore& trace_store() const { return trace_store_; }

 private:
  void worker_loop() PQS_EXCLUDES(mutex_);
  void execute(const std::shared_ptr<detail::Job>& job) PQS_EXCLUDES(mutex_);
  /// Move a job to a terminal state, publish the result, wake waiters.
  void finish(const std::shared_ptr<detail::Job>& job, JobStatus status,
              SearchReport report, std::string error) PQS_EXCLUDES(mutex_);
  /// Settle every fully-cancelled job still waiting in the queue (called
  /// with mutex_ held when the queue hits capacity): cancellation must be
  /// able to shed load, not just mark jobs a worker will discard later.
  void reap_cancelled_locked() PQS_REQUIRES(mutex_);
  JobHandle attach(const std::shared_ptr<detail::Job>& job);

  ServiceOptions options_;
  Engine engine_;

  /// The private fallback registry; referenced by metrics_ iff
  /// options.metrics was null. Declared before the instruments (they bind
  /// into it at construction).
  mutable obs::MetricsRegistry own_metrics_;
  obs::MetricsRegistry* metrics_;  ///< never null after construction

  /// Hot-path instrument handles, resolved once at construction: name
  /// lookups take the registry mutex, these references never do. They are
  /// the Service's only telemetry; every reader (the `stats` and `metrics`
  /// wire ops, tests) goes through the registry.
  struct Instruments {
    obs::Counter& submitted;
    obs::Counter& coalesced_submits;
    obs::Counter& cache_hits;
    obs::Counter& rejected;
    obs::Counter& executed;
    obs::Counter& done;
    obs::Counter& cancelled;
    obs::Counter& failed;
    obs::AtomicHistogram& queue_ns;
    obs::AtomicHistogram& plan_ns;
    obs::AtomicHistogram& exec_ns;
    obs::Gauge& queue_depth;
    obs::Gauge& plan_cache_size;
    obs::Gauge& plan_cache_evictions;
    obs::Gauge& result_cache_size;
    obs::Gauge& result_cache_evictions;
    static Instruments bind(obs::MetricsRegistry& registry);
  };
  Instruments inst_;

  mutable obs::TraceStore trace_store_;

  /// Guards the queue, the coalescing index, and the result cache
  /// (annotated below — the analysis rejects unlocked access). The event
  /// counters moved into the registry's lock-free instruments above.
  mutable Mutex mutex_;
  std::condition_variable_any queue_cv_;
  /// (-priority, sequence) -> job: begin() is the next job to run.
  std::map<std::pair<int, std::uint64_t>, std::shared_ptr<detail::Job>>
      queue_ PQS_GUARDED_BY(mutex_);
  /// canonical key -> queued-or-running job (the coalescing index).
  std::map<std::string, std::shared_ptr<detail::Job>> inflight_
      PQS_GUARDED_BY(mutex_);
  LruMap<std::string, SearchReport> results_ PQS_GUARDED_BY(mutex_);
  std::uint64_t next_seq_ PQS_GUARDED_BY(mutex_) = 0;
  bool stopping_ PQS_GUARDED_BY(mutex_) = false;

  std::vector<std::thread> workers_;  ///< constructed last, joined first
};

}  // namespace pqs
