#include "service/service.h"

#include <algorithm>

#include "api/serialize.h"
#include "common/check.h"
#include "common/timing.h"
#include "qsim/parallel.h"
#include "service/journal.h"

namespace pqs {

using detail::Job;

std::string_view to_string(JobStatus status) {
  switch (status) {
    case JobStatus::kQueued: return "queued";
    case JobStatus::kRunning: return "running";
    case JobStatus::kDone: return "done";
    case JobStatus::kCancelled: return "cancelled";
    case JobStatus::kFailed: return "failed";
  }
  return "?";
}

// ---- JobHandle -------------------------------------------------------------

JobStatus JobHandle::status_locked() const {
  // A cancelled attachment is cancelled for good — even if the coalesced
  // execution completes for the other callers, THIS caller asked out, and
  // a cancelled handle must never flip to kDone.
  if (cancelled_->load()) {
    return JobStatus::kCancelled;
  }
  return job_->status;
}

JobStatus JobHandle::status() const {
  LockGuard lock(job_->mutex);
  return status_locked();
}

bool JobHandle::finished() const {
  const JobStatus s = status();
  return s == JobStatus::kDone || s == JobStatus::kCancelled ||
         s == JobStatus::kFailed;
}

double JobHandle::progress() const {
  {
    LockGuard lock(job_->mutex);
    if (job_->status == JobStatus::kDone) {
      return 1.0;  // single-shot runs report no intermediate units
    }
  }
  return job_->control.progress();
}

// The waits spell their predicate as an inline loop instead of the
// cv.wait(lock, pred) lambda form: the thread-safety analysis checks a
// lambda body as a separate function that does not hold job_->mutex, while
// the inline loop provably runs with the lock held (see
// common/thread_annotations.h).

JobStatus JobHandle::wait() const {
  UniqueLock lock(job_->mutex);
  while (true) {
    const JobStatus s = status_locked();
    if (s != JobStatus::kQueued && s != JobStatus::kRunning) {
      return s;
    }
    job_->cv.wait(lock);
  }
}

JobStatus JobHandle::wait_for(std::chrono::milliseconds timeout) const {
  const auto deadline = steady_now() + timeout;
  UniqueLock lock(job_->mutex);
  while (true) {
    const JobStatus s = status_locked();
    if (s != JobStatus::kQueued && s != JobStatus::kRunning) {
      return s;
    }
    if (job_->cv.wait_until(lock, deadline) == std::cv_status::timeout) {
      return status_locked();  // (possibly still running) status at timeout
    }
  }
}

void JobHandle::cancel() {
  {
    // The flag flips under the waiters' mutex: a wait() that just read the
    // predicate cannot park between this store and the notify (the classic
    // lost-wakeup window).
    LockGuard lock(job_->mutex);
    if (cancelled_->exchange(true)) {
      return;  // this attachment already cancelled
    }
    // Last attached caller out stops the execution itself; otherwise the
    // job keeps running for the still-attached callers.
    if (job_->attached.fetch_sub(1) == 1) {
      job_->control.cancel();
    }
  }
  job_->cv.notify_all();  // waiters on this handle see kCancelled now
}

const SearchReport& JobHandle::report() const {
  LockGuard lock(job_->mutex);
  const JobStatus s = status_locked();
  PQS_CHECK_MSG(s == JobStatus::kDone,
                std::string("JobHandle::report: job is ") +
                    std::string(to_string(s)) + ", not done");
  return job_->report;
}

const std::string& JobHandle::error() const {
  LockGuard lock(job_->mutex);
  const JobStatus s = status_locked();
  PQS_CHECK_MSG(s == JobStatus::kFailed,
                std::string("JobHandle::error: job is ") +
                    std::string(to_string(s)) + ", not failed");
  return job_->error;
}

const SearchSpec& JobHandle::spec() const { return job_->spec; }
const std::string& JobHandle::key() const { return job_->key; }

std::uint64_t JobHandle::trace_id() const {
  return job_->trace == nullptr ? 0 : job_->trace->id();
}

std::shared_ptr<const obs::Trace> JobHandle::trace() const {
  return job_->trace;
}

// ---- Service ---------------------------------------------------------------

Service::Service(ServiceOptions options)
    : Service(options, Registry::with_builtin_algorithms()) {}

Service::Instruments Service::Instruments::bind(obs::MetricsRegistry& r) {
  return Instruments{
      r.counter("service.submitted"),
      r.counter("service.coalesced_submits"),
      r.counter("service.cache_hits"),
      r.counter("service.rejected"),
      r.counter("service.executed"),
      r.counter("service.done"),
      r.counter("service.cancelled"),
      r.counter("service.failed"),
      r.histogram("latency.queue_ns"),
      r.histogram("latency.plan_ns"),
      r.histogram("latency.exec_ns"),
      r.gauge("service.queue_depth"),
      r.gauge("plan.cache_size"),
      r.gauge("plan.cache_evictions"),
      r.gauge("result_cache.size"),
      r.gauge("result_cache.evictions"),
  };
}

Service::Service(ServiceOptions options, Registry registry)
    : options_(options),
      engine_(std::move(registry), options.plan_cache_capacity),
      metrics_(options.metrics != nullptr ? options.metrics : &own_metrics_),
      inst_(Instruments::bind(*metrics_)),
      trace_store_(options.trace),
      results_(options.result_cache_capacity) {
  PQS_CHECK_MSG(options_.threads >= 1, "Service needs at least one worker");
  PQS_CHECK_MSG(options_.queue_capacity >= 1,
                "Service needs queue_capacity >= 1");
  // The shared Engine's plan cache reports into the same registry
  // (plan.cache_hits / plan.cache_misses), replacing the Planner's
  // private counters.
  engine_.bind_metrics(*metrics_);
  // Count slow requests even before pqs_serve installs its stderr
  // callback; set_slow_sink is pre-traffic wiring by contract.
  trace_store_.set_slow_sink(metrics_, nullptr);
  workers_.reserve(options_.threads);
  for (unsigned t = 0; t < options_.threads; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Service::~Service() {
  std::vector<std::shared_ptr<Job>> queued;
  {
    LockGuard lock(mutex_);
    stopping_ = true;
    queued.reserve(queue_.size());
    for (const auto& [order, job] : queue_) {
      queued.push_back(job);
    }
    queue_.clear();
    // Running jobs stop at their next checkpoint.
    for (const auto& [key, job] : inflight_) {
      job->control.cancel();
    }
  }
  // Settle the never-started jobs so their waiters wake.
  for (const auto& job : queued) {
    finish(job, JobStatus::kCancelled, {}, "service shut down");
  }
  queue_cv_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
}

JobHandle Service::attach(const std::shared_ptr<Job>& job) {
  job->attached.fetch_add(1);
  return JobHandle(job, std::make_shared<std::atomic<bool>>(false));
}

JobHandle Service::submit(const SearchSpec& spec, int priority) {
  // Validate and canonicalize HERE, synchronously: a malformed spec throws
  // at the submission site, and a predicate is scanned exactly once.
  auto [canonical, key] = api::canonicalize(spec);

  LockGuard lock(mutex_);
  PQS_CHECK_MSG(!stopping_, "Service is shutting down");

  // Coalesce: attach to the queued-or-running execution of the same spec —
  // unless every previous caller already cancelled it: that execution is
  // doomed to settle kCancelled, and a fresh caller expects a result, so
  // it gets a fresh job (which replaces the doomed one in the index). The
  // doomed-check and the attach happen under the job mutex, the same lock
  // cancel() holds for its last-one-out decision, so a racing cancel
  // either beats us (we see cancelled and go fresh) or sees our
  // attachment (and leaves the execution running for us).
  if (const auto it = inflight_.find(key); it != inflight_.end()) {
    const std::shared_ptr<Job>& job = it->second;
    LockGuard job_lock(job->mutex);
    if (!job->control.cancelled()) {
      inst_.submitted.add();
      inst_.coalesced_submits.add();
      job->attached.fetch_add(1);
      // An urgent caller must not inherit a lazy caller's queue position:
      // if the shared job is still waiting, promote it to the higher
      // priority (re-key the queue entry).
      if (priority > job->priority) {
        const auto queued =
            queue_.find(std::make_pair(-job->priority, job->seq));
        if (queued != queue_.end()) {
          queue_.erase(queued);
          job->priority = priority;
          queue_.emplace(std::make_pair(-priority, job->seq), job);
        }
      }
      return JobHandle(job, std::make_shared<std::atomic<bool>>(false));
    }
  }

  // Repeat of a completed spec: serve the cached report, run nothing.
  if (const SearchReport* cached = results_.find(key)) {
    inst_.submitted.add();
    inst_.cache_hits.add();
    auto job = std::make_shared<Job>();
    job->spec = std::move(canonical);
    job->key = std::move(key);
    {
      // The job is not shared yet, but status/report are guarded members
      // and the analysis (rightly) has no notion of "not shared yet".
      LockGuard job_lock(job->mutex);
      job->status = JobStatus::kDone;
      job->report = *cached;
      job->report.queue_ns = 0;  // THIS request never queued; don't replay
                                 // the original execution's queueing delay
    }
    return attach(job);
  }

  if (queue_.size() >= options_.queue_capacity) {
    reap_cancelled_locked();  // cancelled waiters must not hold slots
  }
  if (queue_.size() >= options_.queue_capacity) {
    // Admission control: overload is rejected HERE, explicitly and
    // immediately — never absorbed as silent queueing latency. Front-ends
    // (src/net/session.cpp) map this exact type to an `overloaded` event.
    inst_.rejected.add();
    throw OverloadedError("Service queue is full (" +
                          std::to_string(options_.queue_capacity) +
                          " jobs waiting); retry later or raise "
                          "queue_capacity");
  }
  auto job = std::make_shared<Job>();
  job->spec = std::move(canonical);
  job->key = key;
  job->priority = priority;
  job->seq = next_seq_++;
  // Durability before visibility: the accepted record must be on disk
  // before any caller can observe the job, so the ack a front-end sends
  // implies the work survives a crash. A failed append throws out of
  // submit — the job was never accepted, and no counter moved.
  //
  // The append runs under mutex_ DELIBERATELY: released first, a same-key
  // submit could coalesce onto (and be acked against) a job that is not
  // yet durable. The cost is that every append — a single write(2), plus
  // one fsync per record under --journal-sync always — stalls all
  // submits, completions, and stats behind it; kAlways therefore bounds
  // service-wide submit throughput by disk-flush latency (the documented
  // trade-off; see README "Durability & replay").
  if (options_.journal) {
    job->journal_id = options_.journal->append_accepted(job->spec, priority);
  }
  inst_.submitted.add();  // after capacity + journal: rejects are not accepts
  // Mint the trace last, pre-publication (same once-before-sharing
  // contract as journal_id); from here every layer the job crosses can
  // emit spans through the control's sink.
  job->trace = trace_store_.mint();
  if (job->trace != nullptr) {
    job->control.set_span_sink(job->trace.get());
    job->trace->span("submit");
    job->trace->span("queue.enqueued");
  }
  job->queued_at.reset();
  inflight_[std::move(key)] = job;  // may replace a fully-cancelled job
  queue_.emplace(std::make_pair(-priority, job->seq), job);
  queue_cv_.notify_one();
  return attach(job);
}

std::size_t Service::queue_depth() const {
  LockGuard lock(mutex_);
  return queue_.size();
}

Json Service::metrics_snapshot() const {
  // Counters and histograms update themselves; the sampled levels are
  // refreshed here so a snapshot is never staler than its own dump.
  {
    LockGuard lock(mutex_);
    inst_.queue_depth.set(static_cast<std::int64_t>(queue_.size()));
    inst_.result_cache_size.set(static_cast<std::int64_t>(results_.size()));
    inst_.result_cache_evictions.set(
        static_cast<std::int64_t>(results_.evictions()));
  }
  const Planner& planner = engine_.planner();
  inst_.plan_cache_size.set(static_cast<std::int64_t>(planner.size()));
  inst_.plan_cache_evictions.set(
      static_cast<std::int64_t>(planner.evictions()));
  return metrics_->snapshot();
}

void Service::reap_cancelled_locked() {
  for (auto it = queue_.begin(); it != queue_.end();) {
    const std::shared_ptr<Job>& job = it->second;
    if (!job->control.cancelled()) {
      ++it;
      continue;
    }
    // Inline finish() for a job that never ran, under the already-held
    // mutex_ (mutex_ -> job->mutex is the sanctioned lock order).
    if (const auto inflight = inflight_.find(job->key);
        inflight != inflight_.end() && inflight->second == job) {
      inflight_.erase(inflight);
    }
    inst_.cancelled.add();
    if (options_.journal && job->journal_id != 0 && !stopping_) {
      try {
        options_.journal->append_completed(job->journal_id,
                                           JobStatus::kCancelled, nullptr);
      } catch (const std::exception&) {
      }
    }
    if (job->trace != nullptr) {
      job->trace->span("finish.cancelled");
      trace_store_.retire(job->trace);
    }
    {
      LockGuard job_lock(job->mutex);
      job->status = JobStatus::kCancelled;
      job->error = "cancelled while queued";
    }
    job->cv.notify_all();
    it = queue_.erase(it);
  }
}

void Service::worker_loop() {
  // Workers share the machine: each gets an equal slice of its threads for
  // the kernels and shot fan-outs it runs, so W workers never open more
  // than hardware_threads() threads between them.
  qsim::set_thread_budget(
      std::max(1u, qsim::hardware_threads() / options_.threads));
  while (true) {
    std::shared_ptr<Job> job;
    {
      UniqueLock lock(mutex_);
      while (!stopping_ && queue_.empty()) {
        queue_cv_.wait(lock);  // inline predicate loop: see wait() above
      }
      if (queue_.empty()) {
        return;  // stopping, nothing left to run
      }
      job = queue_.begin()->second;
      queue_.erase(queue_.begin());
    }
    execute(job);
  }
}

void Service::execute(const std::shared_ptr<Job>& job) {
  const std::uint64_t queue_ns = job->queued_at.nanos();
  // Cancelled while queued (every attachment gone): never start.
  if (job->control.cancelled()) {
    finish(job, JobStatus::kCancelled, {}, "cancelled while queued");
    return;
  }
  {
    LockGuard lock(job->mutex);
    job->status = JobStatus::kRunning;
  }
  inst_.executed.add();
  job->control.span("exec.begin");

  try {
    SearchReport report = engine_.run(job->spec, &job->control);
    // A fully cancelled job settles as cancelled even when the driver won
    // the race and completed: every caller asked out, so publishing kDone
    // (and caching the result) would misreport what the service did.
    if (job->control.cancelled()) {
      finish(job, JobStatus::kCancelled, {}, "cancelled while running");
      return;
    }
    report.queue_ns = queue_ns;
    finish(job, JobStatus::kDone, std::move(report), {});
  } catch (const qsim::CancelledError&) {
    finish(job, JobStatus::kCancelled, {}, "cancelled while running");
  } catch (const std::exception& e) {
    finish(job, JobStatus::kFailed, {}, e.what());
  }
}

void Service::finish(const std::shared_ptr<Job>& job, JobStatus status,
                     SearchReport report, std::string error) {
  // Service-level bookkeeping FIRST: a waiter woken by the notify below
  // must observe the final counters and the cached result, not a stale
  // in-between state.
  {
    LockGuard lock(mutex_);
    // Erase only OUR index entry: a fully-cancelled job's key may already
    // have been taken over by a fresh submission.
    if (const auto it = inflight_.find(job->key);
        it != inflight_.end() && it->second == job) {
      inflight_.erase(it);
    }
    switch (status) {
      case JobStatus::kDone:
        inst_.done.add();
        results_.put(job->key, report);
        inst_.queue_ns.record(report.queue_ns);
        inst_.plan_ns.record(report.plan_ns);
        inst_.exec_ns.record(report.exec_ns);
        break;
      case JobStatus::kCancelled:
        inst_.cancelled.add();
        break;
      case JobStatus::kFailed:
        inst_.failed.add();
        break;
      default:
        break;
    }
    // Completion marker — deliberately suppressed while stopping_, so jobs
    // a shutdown (or crash) interrupted stay pending in the journal and are
    // replayed at the next start. Explicit cancels while the service is
    // live DO land a marker: cancelled work must not resurrect. A marker
    // write failure only degrades exactly-once to at-least-once (the job
    // replays; reports are deterministic), so it never takes down a worker.
    if (options_.journal && job->journal_id != 0 && !stopping_) {
      try {
        options_.journal->append_completed(
            job->journal_id, status,
            status == JobStatus::kDone ? &report : nullptr);
      } catch (const std::exception&) {
      }
    }
  }
  if (job->trace != nullptr) {
    switch (status) {
      case JobStatus::kDone: job->trace->span("finish.done"); break;
      case JobStatus::kCancelled: job->trace->span("finish.cancelled"); break;
      default: job->trace->span("finish.failed"); break;
    }
    trace_store_.retire(job->trace);  // outside mutex_: the slow-request
                                      // callback may write to stderr
  }
  {
    LockGuard lock(job->mutex);
    job->status = status;
    job->report = std::move(report);
    job->error = std::move(error);
  }
  job->cv.notify_all();
}

}  // namespace pqs
