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

// ---- Job -------------------------------------------------------------------

void detail::Job::settle_locked(JobStatus final_status,
                                SearchReport final_report,
                                std::string final_error) {
  if (status != JobStatus::kQueued && status != JobStatus::kRunning) {
    return;  // already settled
  }
  if (trace != nullptr) {
    switch (final_status) {
      case JobStatus::kDone: trace->span("finish.done"); break;
      case JobStatus::kCancelled: trace->span("finish.cancelled"); break;
      default: trace->span("finish.failed"); break;
    }
    trace_store->retire(*trace);
  }
  status = final_status;
  report = std::move(final_report);
  error = std::move(final_error);
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

// wait() spells its predicate as an inline loop instead of the
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
    // job keeps running for the still-attached callers. A queued job that
    // every caller left never starts, so it settles here, before any waiter
    // can read kCancelled; the service drops its queue entry later.
    if (job_->attached.fetch_sub(1) == 1) {
      job_->control.cancel();
      if (job_->status == JobStatus::kQueued) {
        job_->settle_locked(JobStatus::kCancelled, {},
                            "cancelled while queued");
      }
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
    UniqueLock lock(mutex_);
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
    // A submit still writing its job's `accepted` record settles that job
    // itself once it sees stopping_; it must be done with this Service
    // before the members go.
    while (appending_ != 0) {
      appended_cv_.wait(lock);  // inline predicate loop: see wait() above
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

JobHandle Service::handle_on(const std::shared_ptr<Job>& job) {
  return JobHandle(job, std::make_shared<std::atomic<bool>>(false));
}

JobHandle Service::submit(const SearchSpec& spec, int priority) {
  // Validate and canonicalize HERE, synchronously: a malformed spec throws
  // at the submission site, and a predicate is scanned exactly once.
  api::CanonicalSpec canonical = api::canonicalize(spec);
  // A fresh execution's `accepted` record, serialized before the lock from
  // the digest's own bytes (coalesced and cached submits discard it).
  std::string record;
  if (options_.journal) {
    record = options_.journal->accepted_record(canonical, priority);
  }
  std::string& key = canonical.key;

  // mutex_ is held only to decide and to publish. A fresh job enters the
  // coalescing index and the capacity count here, its record is written
  // with the lock released (append_and_enqueue), and the lock is taken
  // again only to enqueue it. Every ack still implies a durable record: a
  // same-key submit that arrives during the write coalesces onto the job
  // and waits for the record before it returns (await_accepted).
  // The job a fresh execution or a cache hit needs is allocated before the
  // lock too; a submit that coalesces drops it.
  auto made = std::make_shared<Job>();
  made->spec = std::move(canonical.spec);
  std::shared_ptr<Job> job;
  bool coalesced = false;
  {
    LockGuard lock(mutex_);
    PQS_CHECK_MSG(!stopping_, "Service is shutting down");

    // Coalesce: attach to the queued-or-running execution of the same spec
    // — unless every previous caller already cancelled it: that execution
    // is doomed to settle kCancelled, and a fresh caller expects a result,
    // so it gets a fresh job (which replaces the doomed one in the index).
    // The doomed-check and the attach happen under the job mutex, the same
    // lock cancel() holds for its last-one-out decision, so a racing cancel
    // either beats us (we see cancelled and go fresh) or sees our
    // attachment (and leaves the execution running for us).
    if (const auto it = inflight_.find(key); it != inflight_.end()) {
      const std::shared_ptr<Job>& shared = it->second;
      LockGuard job_lock(shared->mutex);
      if (!shared->control.cancelled()) {
        shared->attached.fetch_add(1);
        // An urgent caller must not inherit a lazy caller's queue position:
        // a shared job still waiting is re-keyed at the higher priority, and
        // one whose record is being written is enqueued at it.
        if (priority > shared->priority) {
          auto queued =
              queue_.extract(std::make_pair(-shared->priority, shared->seq));
          shared->priority = priority;
          if (!queued.empty()) {
            queued.key() = std::make_pair(-priority, shared->seq);
            queue_.insert(std::move(queued));
          }
        }
        if (shared->accepted) {
          inst_.submitted.add();
          inst_.coalesced_submits.add();
          return handle_on(shared);
        }
        ++shared->waiting_submits;  // counted once the record is written
        job = shared;
        coalesced = true;
      }
    }

    if (!coalesced) {
      // Repeat of a completed spec: serve the cached report, run nothing.
      if (const SearchReport* cached = results_.find(key)) {
        inst_.submitted.add();
        inst_.cache_hits.add();
        std::shared_ptr<Job> hit = std::move(made);
        hit->key = std::move(key);
        {
          // The job is not shared yet, but status/report are guarded
          // members and the analysis (rightly) has no notion of "not
          // shared yet".
          LockGuard job_lock(hit->mutex);
          hit->status = JobStatus::kDone;
          hit->report = *cached;
          hit->report.queue_ns = 0;  // THIS request never queued; don't
                                     // replay the original's queueing delay
        }
        return handle_on(hit);
      }

      if (queue_.size() + appending_ >= options_.queue_capacity) {
        reap_cancelled_locked();  // cancelled waiters must not hold slots
      }
      if (queue_.size() + appending_ >= options_.queue_capacity) {
        // Admission control: overload is rejected HERE, explicitly and
        // immediately — never absorbed as silent queueing latency.
        // Front-ends (src/net/session.cpp) map this exact type to an
        // `overloaded` event.
        inst_.rejected.add();
        throw OverloadedError("Service queue is full (" +
                              std::to_string(options_.queue_capacity) +
                              " jobs waiting); retry later or raise "
                              "queue_capacity");
      }
      job = std::move(made);
      Job& fresh = *job;
      fresh.key = key;
      fresh.priority = priority;
      fresh.seq = next_seq_++;
      // Mint the trace before the job is shared; from here every layer the
      // job crosses can emit spans through the control's sink.
      fresh.trace = trace_store_.mint();
      fresh.trace_store = &trace_store_;
      if (fresh.trace != nullptr) {
        fresh.control.set_span_sink(fresh.trace.get());
        fresh.trace->span("submit");
      }
      inflight_[std::move(key)] = job;  // may replace a cancelled job
      if (!options_.journal) {
        {
          LockGuard job_lock(fresh.mutex);  // see the cache-hit note
          fresh.accepted = true;
        }
        inst_.submitted.add();
        enqueue_locked(job);
        return handle_on(job);
      }
      ++appending_;
    }
  }
  return coalesced ? await_accepted(job) : append_and_enqueue(job, record);
}

JobHandle Service::append_and_enqueue(const std::shared_ptr<Job>& job,
                                      std::string& record) {
  // Durability before visibility: the record's id and its one write(2)
  // (plus one fsync under --journal-sync always) run on the journal's own
  // lock, not on mutex_, so completions, cache hits and other submits go
  // on meanwhile. A failed append throws out of submit — the job was never
  // accepted, and no counter moved.
  try {
    job->journal_id = options_.journal->append_accepted(record);
  } catch (const std::exception& e) {
    {
      LockGuard lock(mutex_);
      if (const auto it = inflight_.find(job->key);
          it != inflight_.end() && it->second == job) {
        inflight_.erase(it);
      }
      --appending_;
      appended_cv_.notify_all();
      LockGuard job_lock(job->mutex);
      job->settle_locked(JobStatus::kFailed, {}, wire_message(e));
    }
    job->cv.notify_all();  // the submits that coalesced onto it throw too
    throw;
  }
  {
    LockGuard lock(mutex_);
    --appending_;
    std::uint64_t waiting = 0;
    {
      LockGuard job_lock(job->mutex);
      job->accepted = true;
      waiting = job->waiting_submits;
      if (stopping_) {
        job->settle_locked(JobStatus::kCancelled, {}, "service shut down");
      }
    }
    inst_.submitted.add(1 + waiting);
    inst_.coalesced_submits.add(waiting);
    if (stopping_) {
      // ~Service emptied the queue while the record was written: like any
      // job a shutdown interrupted, this one never runs and gets no
      // completion marker, so a restart replays it.
      account_locked(job, JobStatus::kCancelled, {});
      appended_cv_.notify_all();
    } else {
      enqueue_locked(job);
    }
  }
  job->cv.notify_all();  // the submits that coalesced onto it return
  return handle_on(job);
}

JobHandle Service::await_accepted(const std::shared_ptr<Job>& job) {
  {
    UniqueLock lock(job->mutex);
    while (!job->accepted && job->status == JobStatus::kQueued) {
      job->cv.wait(lock);  // inline predicate loop: see wait() above
    }
    if (!job->accepted) {
      throw CheckFailure(job->error);  // the append's error, once more
    }
  }
  return handle_on(job);
}

void Service::enqueue_locked(const std::shared_ptr<Job>& job) {
  if (job->trace != nullptr) {
    job->trace->span("queue.enqueued");
  }
  job->queued_at.reset();
  queue_.emplace(std::make_pair(-job->priority, job->seq), job);
  queue_cv_.notify_one();
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
    if (it->second->control.cancelled()) {
      // Only a cancel that left no caller attached marks a queued job, and
      // that cancel already settled it (JobHandle::cancel). Its marker is
      // written here, under the lock: reaping runs only when the queue is
      // full, and a cancelled marker carries no report.
      account_locked(it->second, JobStatus::kCancelled, {});
      write_marker(completion_marker(*it->second, JobStatus::kCancelled, {}));
      it = queue_.erase(it);
    } else {
      ++it;
    }
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
  bool start = false;
  {
    // Cancelled while queued (every attachment gone, or shutdown): never
    // start. Decided under the job mutex, which cancel() settles under.
    LockGuard lock(job->mutex);
    start = job->status == JobStatus::kQueued && !job->control.cancelled();
    if (start) {
      job->status = JobStatus::kRunning;
    }
  }
  if (!start) {
    finish(job, JobStatus::kCancelled, {}, "cancelled while queued");
    return;
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
    finish(job, JobStatus::kFailed, {}, wire_message(e));
  }
}

void Service::finish(const std::shared_ptr<Job>& job, JobStatus status,
                     SearchReport report, std::string error) {
  // The completion marker is serialized before mutex_ is taken.
  const std::string marker = completion_marker(*job, status, report);
  // Service-level bookkeeping FIRST: a waiter woken by the notify below
  // must observe the final counters and the cached result, not a stale
  // in-between state.
  bool stopping = false;
  {
    LockGuard lock(mutex_);
    account_locked(job, status, report);
    stopping = stopping_;
  }
  // Marker deliberately suppressed while stopping, so jobs a shutdown (or
  // crash) interrupted stay pending in the journal and are replayed at the
  // next start. Explicit cancels while the service is live DO land a
  // marker: cancelled work must not resurrect. It is written after mutex_
  // is released but before the job settles, so a caller that reads the
  // result (a front-end's result line) knows its marker was written.
  if (!stopping) {
    write_marker(marker);
  }
  {
    LockGuard lock(job->mutex);
    job->settle_locked(status, std::move(report), std::move(error));
  }
  job->cv.notify_all();
}

std::string Service::completion_marker(const Job& job, JobStatus status,
                                       const SearchReport& report) const {
  if (!options_.journal || job.journal_id == 0) {
    return {};
  }
  return Journal::completed_record(
      job.journal_id, status, status == JobStatus::kDone ? &report : nullptr);
}

void Service::write_marker(const std::string& marker) {
  if (marker.empty()) {
    return;
  }
  // A marker write failure only degrades exactly-once to at-least-once
  // (the job replays; reports are deterministic), so it never takes down
  // a worker.
  try {
    options_.journal->append_completed(marker);
  } catch (const std::exception&) {
  }
}

void Service::account_locked(const std::shared_ptr<Job>& job,
                             JobStatus status, const SearchReport& report) {
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
}

}  // namespace pqs
