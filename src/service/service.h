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
  /// (cache hits ride the original record, and a coalesced submit returns
  /// only once it is written) and a completion marker when it settles —
  /// except during shutdown, where markers are deliberately suppressed so a
  /// restart replays the interrupted jobs.
  std::shared_ptr<Journal> journal;
  /// Where this Service registers its instruments (obs/metrics.h). Null —
  /// the default — means a PRIVATE registry owned by the Service: unit
  /// tests build many Services per process and assert exact per-instance
  /// counts, which a shared registry would cross-contaminate. pqs_serve
  /// passes &obs::MetricsRegistry::global() so service, net, and journal
  /// telemetry land in one fleet-scrapable catalog.
  obs::MetricsRegistry* metrics = nullptr;
  /// Request tracing (obs/trace.h): on/off, slow threshold. The default
  /// keeps tracing ON (slow log off) — the bench pins the enabled-path
  /// cost under 1%; set trace.enabled = false to reduce a job to the bare
  /// null-check path.
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
  /// Queue position; written only by Service with Service::mutex_ held. A
  /// coalesced submit may raise it while the job's `accepted` record is
  /// being written; the job is then enqueued at the raised priority.
  int priority = 0;
  std::uint64_t seq = 0;
  /// Journal record id of this execution's `accepted` line (0 = the
  /// Service has no journal, or the job was served from the result cache
  /// and executed nothing). Written once by the submit that created the
  /// job, with Service::mutex_ released, before that submit enqueues it;
  /// only completion markers read it, and only for jobs taken off the
  /// queue, so the enqueue under Service::mutex_ publishes it.
  std::uint64_t journal_id = 0;

  qsim::RunControl control;
  /// Live uncancelled handles; the creating submit's counts from the start.
  std::atomic<std::uint64_t> attached{1};
  Stopwatch queued_at;                     ///< started at submit
  /// This execution's span timeline, or null (tracing disabled, or the
  /// job was served from the result cache and executed nothing). Written
  /// once in submit() before the job is shared, and also reachable through
  /// control's SpanSink.
  std::shared_ptr<obs::Trace> trace;
  /// The store `trace` retires through, set with it. JobHandle::cancel reaches
  /// it only for a still-queued job, and ~Service settles every queued job
  /// under its mutex before the store dies.
  obs::TraceStore* trace_store = nullptr;

  mutable Mutex mutex;
  std::condition_variable_any cv;
  JobStatus status PQS_GUARDED_BY(mutex) = JobStatus::kQueued;
  SearchReport report PQS_GUARDED_BY(mutex);  // valid once kDone
  std::string error PQS_GUARDED_BY(mutex);    // valid once kFailed
  /// True once the `accepted` record is written (from the start without a
  /// journal). A submit that coalesces onto the job before then waits on
  /// `cv` until it is, so its ack too implies a durable record. A job whose
  /// append failed settles kFailed with this still false.
  bool accepted PQS_GUARDED_BY(mutex) = false;
  /// Submits that coalesced before `accepted`; the submit writing the
  /// record counts them in the service counters when it publishes the job.
  std::uint64_t waiting_submits PQS_GUARDED_BY(mutex) = 0;

  /// The job's half of finishing: the terminal span, the trace's
  /// retirement and the status waiters read. Written once, by whichever
  /// path settles the job first: a worker, shutdown, the handle whose
  /// cancel left a queued job with no callers, or the submit whose
  /// `accepted` append failed. The trace retires before the status is
  /// published, so a woken waiter finds it complete; the store's
  /// slow-request callback therefore runs under this job's mutex, where it
  /// can delay only this job's waiters.
  void settle_locked(JobStatus final_status, SearchReport final_report,
                     std::string final_error) PQS_REQUIRES(mutex);
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

  /// Cancel this attachment. Queued jobs never start; a running job stops
  /// at its next checkpoint — unless other callers are still attached, in
  /// which case only this handle detaches and the execution continues for
  /// them. Idempotent.
  void cancel();

  /// The report. Requires status() == kDone (throws otherwise).
  const SearchReport& report() const;
  /// The failure message, without a failed check's source location
  /// (wire_message). Requires status() == kFailed (throws otherwise).
  const std::string& error() const;

  /// The live span timeline (null when untraced: tracing disabled, or
  /// served from the result cache). Coalesced handles share the
  /// execution's trace. Spans keep arriving while the job runs; obs::Trace
  /// reads are internally synchronized.
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

  const Engine& engine() const { return engine_; }
  const ServiceOptions& options() const { return options_; }

  /// The registry this Service's instruments live in: the options-supplied
  /// one, or the private per-instance fallback.
  obs::MetricsRegistry& metrics() const { return *metrics_; }
  /// Refresh the sampled gauges (queue depth, cache sizes and evictions)
  /// and return a full registry snapshot — what the `metrics` wire op
  /// dumps and pqs_router merges fleet-wide.
  Json metrics_snapshot() const;
  /// Where this Service's request traces are minted and retired
  /// (obs/trace.h): the slow-request threshold and callback live there.
  obs::TraceStore& trace_store() const { return trace_store_; }

 private:
  /// Write `job`'s `accepted` record with mutex_ released, then enqueue
  /// the job, or settle it cancelled if the Service began stopping
  /// meanwhile. A failed append takes the job back out, fails it for the
  /// submits waiting on it, and throws.
  JobHandle append_and_enqueue(const std::shared_ptr<detail::Job>& job,
                               std::string& record) PQS_EXCLUDES(mutex_);
  /// The wait of a submit that coalesced onto a job whose `accepted` record
  /// is still being written: returns once it is, throws if it failed.
  static JobHandle await_accepted(const std::shared_ptr<detail::Job>& job);
  void enqueue_locked(const std::shared_ptr<detail::Job>& job)
      PQS_REQUIRES(mutex_);
  void worker_loop() PQS_EXCLUDES(mutex_);
  void execute(const std::shared_ptr<detail::Job>& job) PQS_EXCLUDES(mutex_);
  /// Move a job to a terminal state, publish the result, wake waiters.
  void finish(const std::shared_ptr<detail::Job>& job, JobStatus status,
              SearchReport report, std::string error) PQS_EXCLUDES(mutex_);
  /// The service's half of finishing a job that leaves the queue or a
  /// worker: the coalescing index, the counters and the cached result.
  void account_locked(const std::shared_ptr<detail::Job>& job,
                      JobStatus status, const SearchReport& report)
      PQS_REQUIRES(mutex_);
  /// The job's serialized completion marker, or empty when it has no
  /// `accepted` record (no journal, or served from the result cache).
  std::string completion_marker(const detail::Job& job, JobStatus status,
                                const SearchReport& report) const;
  /// Append a marker from completion_marker (empty: nothing); a failed
  /// write is swallowed.
  void write_marker(const std::string& marker);
  /// Drop every fully-cancelled job still waiting in the queue (called
  /// with mutex_ held when the queue hits capacity): cancellation must be
  /// able to shed load, not just mark jobs a worker will discard later.
  void reap_cancelled_locked() PQS_REQUIRES(mutex_);
  /// A new handle on `job`, already counted in job->attached.
  static JobHandle handle_on(const std::shared_ptr<detail::Job>& job);

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
  /// Fresh jobs whose `accepted` record is being written: in inflight_,
  /// not yet in queue_. They count against queue_capacity, and ~Service
  /// waits on appended_cv_ until none is left.
  std::size_t appending_ PQS_GUARDED_BY(mutex_) = 0;
  std::condition_variable_any appended_cv_;
  bool stopping_ PQS_GUARDED_BY(mutex_) = false;

  std::vector<std::thread> workers_;  ///< constructed last, joined first
};

}  // namespace pqs
