// pqs::obs — request-scoped tracing and the slow-request log.
//
// Metrics answer "how is the service doing"; traces answer "what happened
// to THIS request". A Trace is minted per fresh execution at
// Service::submit (coalesced attachments and cache hits share or skip it,
// same as journal records), carried by the job's RunControl as a
// qsim::SpanSink, and fed named instants by every layer the request
// crosses:
//
//   submit -> queue.enqueued -> exec.begin -> plan.cache_hit|plan.computed
//          -> shots.begin -> shots.end -> exec.end -> finish.done
//
// Span timestamps come from trace_now_ns(), a monotonic clock with a
// test-only fake hook (set_fake_clock_ns_for_testing) — the reason
// pqs_lint's raw-clock rule funnels every clock read through here or
// common/timing: a slow-request test must be able to MAKE a request slow
// without sleeping.
//
// A TraceStore mints the traces and retires them when their jobs settle.
// It keeps none: the `trace` wire op answers from each connection's own
// index of its jobs (net/session.h). Retiring checks the store's slow
// threshold: a job whose total latency crosses it is counted in
// `trace.slow_requests` and handed to a callback, which pqs_serve wires to
// a stderr line.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/thread_annotations.h"
#include "qsim/run_control.h"

namespace pqs::obs {

class Counter;
class MetricsRegistry;

/// Monotonic nanoseconds for span timestamps. Reads the fake clock when a
/// test installed one, the steady clock otherwise.
std::uint64_t trace_now_ns();

/// Install (value >= 0) or remove (nullopt) the fake trace clock. Tests
/// only — NOT thread-safe against concurrent trace_now_ns callers in other
/// threads; install before the traced work starts.
void set_fake_clock_ns_for_testing(std::optional<std::uint64_t> now_ns);

/// One named instant in a request's timeline.
struct SpanEvent {
  const char* name;      ///< static-storage string (literals in practice)
  std::uint64_t t_ns;    ///< trace_now_ns() at the instant
};

/// The span timeline of one request. Implements qsim::SpanSink so the
/// execution layers (Engine, Planner, BatchRunner) emit into it through
/// RunControl::span without knowing obs exists. Appends lock under a
/// per-trace mutex — spans are rare (tens per request) next to the
/// million-probe shot loops, so contention is nil; what matters is that
/// the OpenMP fan-out can emit safely.
class Trace final : public qsim::SpanSink {
 public:
  explicit Trace(std::uint64_t id) : id_(id) {}

  void span(const char* name) noexcept override;

  std::uint64_t id() const { return id_; }
  std::vector<SpanEvent> events() const PQS_EXCLUDES(mutex_);

  /// {"trace_id":N,"spans":[{"name":...,"t_ns":...},...],
  ///  "total_ns": last span t - first span t}
  Json to_json() const PQS_EXCLUDES(mutex_);

  /// Elapsed ns between the first and last span (0 with < 2 spans).
  std::uint64_t total_ns() const PQS_EXCLUDES(mutex_);

 private:
  const std::uint64_t id_;
  mutable Mutex mutex_;
  std::vector<SpanEvent> events_ PQS_GUARDED_BY(mutex_);
};

struct TraceStoreOptions {
  /// False disables tracing entirely: mint() returns null and every hot
  /// path stays a null check.
  bool enabled = true;
  /// Requests whose total span ns meet or exceed this are slow. 0 = off.
  std::uint64_t slow_request_ns = 0;
};

/// Mints traces and applies the slow-request threshold when they retire.
/// Thread-safe and lock-free.
class TraceStore {
 public:
  using SlowCallback = std::function<void(const Trace&)>;

  explicit TraceStore(TraceStoreOptions options = {});

  /// Mint a new trace with the next id, or null when tracing is disabled.
  /// The trace is owned by the job it describes.
  std::shared_ptr<Trace> mint();

  /// Called once per completed trace: evaluates the slow threshold, bumps
  /// `trace.slow_requests` (when a registry watches) and runs the slow
  /// callback on the caller's thread.
  void retire(const Trace& trace);

  /// Count slow requests on `registry` (as `trace.slow_requests`) and run
  /// `callback` for each (e.g. a stderr line). Call before traffic.
  void set_slow_sink(MetricsRegistry* registry, SlowCallback callback);

  bool enabled() const { return options_.enabled; }
  const TraceStoreOptions& options() const { return options_; }

 private:
  TraceStoreOptions options_;
  SlowCallback slow_callback_;       ///< written once by set_slow_sink
  Counter* slow_counter_ = nullptr;  ///< same (pre-traffic wiring)
  std::atomic<std::uint64_t> next_id_{1};
};

}  // namespace pqs::obs
