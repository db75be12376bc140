// One JSONL protocol session over a pqs::Service — the piece pqs_serve's
// stdin loop and every TCP connection share.
//
// A session consumes request lines (submit / cancel / stats / metrics /
// trace) and produces event lines (accepted / overloaded / cancelling /
// stats / metrics / trace / result / error).
// Protocol contract, identical on every transport:
//
//   * every request line is answered SYNCHRONOUSLY by exactly one ack event
//     (`accepted`, `overloaded`, `cancelling`, `stats`, or `error`) before
//     the next line is processed — clients and the router pair acks to
//     requests by order, no ids needed on errors;
//   * `result` events are asynchronous and arrive in SUBMISSION order (a
//     dedicated emitter thread walks the pending jobs front to back), so at
//     fixed seeds — with timing zeroed unless with_timing — the result
//     stream is a byte-deterministic function of the request stream;
//   * overload is explicit, never silent latency: a submit past the
//     Service's bounded queue or past this session's inflight cap gets an
//     immediate `overloaded` event naming the reason.
//
// End-of-input has two shapes because transports differ: drain() (stdin
// EOF: the pipe is done but the reader still wants its results) blocks
// until every accepted job is announced; abort() (TCP peer gone) cancels
// every unannounced job through its RunControl — a dropped connection must
// shed its load, not finish work nobody will read.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "common/json.h"
#include "common/thread_annotations.h"
#include "service/service.h"

namespace pqs::net {

struct SessionOptions {
  /// Emit real queue/plan/exec timing in result payloads (off keeps the
  /// output byte-deterministic at fixed seeds).
  bool with_timing = false;
  /// Most unanswered submits in flight on this session (0 = unbounded).
  std::size_t inflight_limit = 0;
};

/// One request line, parsed and validated. Parsing is PURE — no Service,
/// no I/O, no session state — which is what lets the fuzz target
/// (fuzz/fuzz_wire_line.cpp) and pqs_replay drive the exact code every
/// transport runs, without standing a service up.
struct Request {
  enum class Op { kSubmit, kCancel, kStats, kMetrics, kTrace };
  Op op = Op::kStats;
  /// Required (non-empty) for submit/cancel/trace; optional echo token for
  /// stats/metrics.
  std::string id;
  int priority = 0;  ///< submit only
  SearchSpec spec;   ///< submit only; validated by api::spec_from_json
};

/// A request's op, id and priority — everything but the spec, so a
/// front-end (Session, pqs_router) can refuse a submit before paying for
/// its spec. Throws CheckFailure on an op outside the five, or a missing
/// id where the op needs one.
Request parse_request_header(const Json& request);

/// Parse one request line: the header, then a submit's spec. Throws
/// CheckFailure (never anything else, never UB — fuzz-enforced) on
/// malformed JSON, a bad header, or a malformed spec.
Request parse_request(const std::string& line);

/// The `error` ack of a rejected request line.
Json error_event(const std::string& message);

/// How many job ids a front-end (Session, pqs_router) remembers for `trace`
/// past their completion; at the cap the oldest id is forgotten.
inline constexpr std::size_t kTraceIndexCapacity = 4096;

/// The `error` acks of a `cancel` whose id is not in flight and of a `trace`
/// whose id has no remembered timeline. Session and pqs_router both answer
/// with these, so a routed client reads a worker's words.
Json unknown_cancel_event(const std::string& id);
Json unknown_trace_event(const std::string& id);

/// Submit admission, before the spec is looked at, in the one order every
/// front-end applies: an id still in flight on this connection is an
/// `error`; a connection holding `limit` unanswered submits (0 = no cap)
/// is `overloaded`. Returns the refusing ack, or nullopt to admit.
std::optional<Json> submit_refusal(const std::string& id, bool id_in_flight,
                                   std::size_t in_flight, std::size_t limit);

class Session {
 public:
  /// Sink for one complete event line (no terminator). Returns false when
  /// the peer is unreachable — the session then aborts itself. Called from
  /// both the session's thread and its emitter thread, but never
  /// concurrently (the session serializes).
  using WriteLine = std::function<bool(const std::string&)>;

  Session(Service& service, WriteLine write_line, SessionOptions options = {});
  /// Aborts (cancelling any still-unannounced jobs) unless drained first.
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Process one request line (empty lines are ignored). Call from one
  /// thread only.
  void handle_line(const std::string& line);

  /// Input exhausted cleanly: block until every accepted job's result is
  /// announced, then stop the emitter.
  void drain();

  /// Peer gone: cancel every unannounced job via its RunControl, emit
  /// nothing more. Idempotent; safe after drain().
  void abort();

  /// Unanswered submits right now (the inflight cap's measure).
  std::size_t inflight() const;

 private:
  void emitter_loop();
  /// Serialize + write one event; on a dead sink, aborts the session.
  void emit(const Json& event);
  /// The extended `stats` event: a projection of the Service's registry
  /// snapshot (queue depth, counters, coalescing hit-rate, cache counters,
  /// per-stage latency histograms) plus the deployment shape.
  Json stats_event(const std::string& id) const;
  /// The `metrics` event: the Service registry's full snapshot (gauges
  /// refreshed), under a "metrics" key so the router can lift and merge it.
  Json metrics_event(const std::string& id) const;
  /// The `trace` event for a previously submitted job id: its span
  /// timeline, or an error event when the id is unknown / evicted.
  Json trace_event(const std::string& id) const PQS_EXCLUDES(mutex_);
  void remember_trace(const std::string& id,
                      std::shared_ptr<const obs::Trace> trace)
      PQS_EXCLUDES(mutex_);

  Service& service_;
  SessionOptions options_;

  /// Serializes event lines onto the sink (conn thread acks vs emitter
  /// results) and guards the peer-gone latch.
  mutable Mutex out_mutex_;
  WriteLine write_line_ PQS_GUARDED_BY(out_mutex_);
  bool peer_gone_ PQS_GUARDED_BY(out_mutex_) = false;

  /// Guards the submission-order queue and the cancel index. Never held
  /// together with out_mutex_ (emit() runs outside mutex_, and a failed
  /// write releases out_mutex_ before abort() takes mutex_).
  mutable Mutex mutex_;
  std::condition_variable_any cv_;
  /// (id, handle) in submission order; the emitter announces front first.
  std::deque<std::pair<std::string, JobHandle>> pending_ PQS_GUARDED_BY(mutex_);
  /// id -> handle for every unannounced job (cancel ops, abort, the cap).
  std::map<std::string, JobHandle> jobs_ PQS_GUARDED_BY(mutex_);
  bool input_done_ PQS_GUARDED_BY(mutex_) = false;
  bool aborted_ PQS_GUARDED_BY(mutex_) = false;

  /// request id -> span timeline, kept PAST completion (the `trace` op
  /// arrives after the result) in a bounded FIFO of kTraceIndexCapacity
  /// ids. Re-submitting a finished id replaces its timeline in place.
  std::map<std::string, std::shared_ptr<const obs::Trace>> traces_
      PQS_GUARDED_BY(mutex_);
  std::deque<std::string> trace_order_ PQS_GUARDED_BY(mutex_);

  std::thread emitter_;  ///< constructed last, joined by drain()/~Session
};

}  // namespace pqs::net
