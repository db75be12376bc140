#include "net/session.h"

#include <optional>

#include "api/serialize.h"
#include "common/check.h"
#include "common/json.h"
#include "qsim/isa.h"

namespace pqs::net {

namespace {

/// Buffered output past this many bytes is flushed at once, so a long run
/// of finished results neither grows the buffer without bound nor holds
/// the first of them back until the last is serialized.
constexpr std::size_t kFlushBytes = std::size_t{64} << 10;

/// Append the `result` line of a settled job, keys in dump()'s order:
/// error (failed only), event, id, report (done only), status.
void write_result(const std::string& id, const JobHandle& handle,
                  bool with_timing, std::string& out) {
  const JobStatus status = handle.status();
  out += '{';
  if (status == JobStatus::kFailed) {
    out += R"("error":)";
    Json::dump_string(handle.error(), out);
    out += ',';
  }
  out += R"("event":"result","id":)";
  Json::dump_string(id, out);
  if (status == JobStatus::kDone) {
    SearchReport report = handle.report();
    if (!with_timing) {
      // The answer fields are deterministic at fixed seed; these four
      // describe how the run happened to execute (wall clock, cache
      // warmth under racing workers) and would break byte-for-byte diffs.
      report.queue_ns = 0;
      report.plan_ns = 0;
      report.exec_ns = 0;
      report.plan_cache_hit = false;
    }
    out += R"(,"report":)";
    api::write_json(report, out);
  }
  out += R"(,"status":")";
  out += to_string(status);
  out += R"("})";
}

/// An ack that carries only its event kind and the request id.
std::string id_event(std::string_view event, const std::string& id) {
  std::string line = R"({"event":")";
  line += event;
  line += R"(","id":)";
  Json::dump_string(id, line);
  line += '}';
  return line;
}

Json overloaded_event(const std::string& id, const std::string& reason) {
  Json event = Json::make_object();
  event["event"] = "overloaded";
  event["id"] = id;
  event["reason"] = reason;
  return event;
}

}  // namespace

Request parse_request_header(const Json& request) {
  Request parsed;
  const std::string& op = request.at("op").as_string();
  if (op == "submit") {
    parsed.op = Request::Op::kSubmit;
  } else if (op == "cancel") {
    parsed.op = Request::Op::kCancel;
  } else if (op == "stats") {
    parsed.op = Request::Op::kStats;
  } else if (op == "metrics") {
    parsed.op = Request::Op::kMetrics;
  } else if (op == "trace") {
    parsed.op = Request::Op::kTrace;
  } else {
    throw CheckFailure("unknown op \"" + op +
                       "\" (expected submit | cancel | stats | metrics | "
                       "trace)");
  }
  // stats/metrics are connection-level: an id is optional there (echoed
  // back when given, so a multiplexing client can pair the reply).
  // submit/cancel/trace address jobs and must name one.
  parsed.id =
      request.has("id") ? request.at("id").as_string() : std::string();
  if (parsed.op != Request::Op::kStats && parsed.op != Request::Op::kMetrics &&
      parsed.id.empty()) {
    throw CheckFailure("\"" + op + "\" requires a non-empty \"id\"");
  }
  if (parsed.op == Request::Op::kSubmit) {
    parsed.priority = request.has("priority")
                          ? api::priority_from_json(request.at("priority"))
                          : 0;
  }
  return parsed;
}

Request parse_request(const std::string& line) {
  const Json request = Json::parse(line);
  Request parsed = parse_request_header(request);
  if (parsed.op == Request::Op::kSubmit) {
    parsed.spec = api::spec_from_json(request.at("spec"));
  }
  return parsed;
}

Json error_event(const std::string& message) {
  Json event = Json::make_object();
  event["event"] = "error";
  event["message"] = message;
  return event;
}

Json unknown_cancel_event(const std::string& id) {
  return error_event("unknown or already-finished job id \"" + id + "\"");
}

Json unknown_trace_event(const std::string& id) {
  return error_event("no trace for job id \"" + id +
                     "\" (unknown, untraced, or forgotten — only the last " +
                     std::to_string(kTraceIndexCapacity) +
                     " submitted ids are remembered)");
}

std::optional<Json> submit_refusal(const std::string& id, bool id_in_flight,
                                   std::size_t in_flight, std::size_t limit) {
  if (id_in_flight) {
    return error_event("duplicate in-flight job id \"" + id + "\"");
  }
  if (limit != 0 && in_flight >= limit) {
    return overloaded_event(id, "inflight cap (" + std::to_string(limit) +
                                    " unanswered submits on this connection)");
  }
  return std::nullopt;
}

std::vector<std::string> split_lines(std::string_view lines) {
  std::vector<std::string> out;
  while (!lines.empty()) {
    const std::size_t end = lines.find('\n');
    out.emplace_back(lines.substr(0, end));
    lines.remove_prefix(end == std::string_view::npos ? lines.size()
                                                      : end + 1);
  }
  return out;
}

Session::Session(Service& service, WriteLines write_lines,
                 SessionOptions options)
    : service_(service), options_(options) {
  {
    // The session is not shared yet, but write_lines_ is a guarded member
    // and the analysis (rightly) has no notion of "not shared yet".
    LockGuard lock(out_mutex_);
    write_lines_ = std::move(write_lines);
  }
  emitter_ = std::thread([this] { emitter_loop(); });
}

Session::~Session() {
  abort();
  if (emitter_.joinable()) {
    emitter_.join();
  }
}

bool Session::write_out_locked() {
  if (peer_gone_ || out_.empty()) {
    return false;
  }
  const bool written = write_lines_(out_);
  out_.clear();
  peer_gone_ = !written;
  return !written;
}

void Session::emit_line(std::string_view line) {
  bool gone = false;
  {
    LockGuard lock(out_mutex_);
    if (peer_gone_) {
      return;
    }
    out_ += line;
    out_ += '\n';
    if (out_.size() >= kFlushBytes) {
      gone = write_out_locked();
    }
  }
  if (gone) {
    abort();  // a dead sink sheds its load like a dropped connection
  }
}

void Session::emit(const Json& event) { emit_line(event.dump()); }

void Session::flush() {
  bool gone = false;
  {
    LockGuard lock(out_mutex_);
    gone = write_out_locked();
  }
  if (gone) {
    abort();
  }
}

Json Session::stats_event(const std::string& id) const {
  // A projection of the registry snapshot: every number below is read by
  // its instrument name, so `stats` and `metrics` can never disagree.
  const Json snapshot = service_.metrics_snapshot();
  const Json& counters = snapshot.at("counters");
  const Json& gauges = snapshot.at("gauges");
  const Json& histograms = snapshot.at("histograms");
  const ServiceOptions& options = service_.options();

  Json event = Json::make_object();
  event["event"] = "stats";
  if (!id.empty()) {
    event["id"] = id;
  }
  // Deployment shape: which kernel tier this node dispatches to, and the
  // pool bounds (the isa value is machine-dependent — CI fixtures must not
  // diff this event).
  event["isa"] = std::string(qsim::isa_name(qsim::active_isa()));
  event["workers"] = std::uint64_t{options.threads};
  event["queue_capacity"] = std::uint64_t{options.queue_capacity};
  event["queue_depth"] = gauges.at("service.queue_depth");

  Json service_counters = Json::make_object();
  for (const std::string name :
       {"submitted", "coalesced_submits", "cache_hits", "rejected", "executed",
        "done", "cancelled", "failed"}) {
    service_counters[name] = counters.at("service." + name);
  }
  // Fraction of accepted submits that attached to an in-flight execution.
  const std::uint64_t submitted = counters.at("service.submitted").as_uint();
  event["coalescing_hit_rate"] =
      submitted == 0
          ? 0.0
          : static_cast<double>(
                counters.at("service.coalesced_submits").as_uint()) /
                static_cast<double>(submitted);
  event["counters"] = std::move(service_counters);

  Json plan_cache = Json::make_object();
  plan_cache["hits"] = counters.at("plan.cache_hits");
  plan_cache["misses"] = counters.at("plan.cache_misses");
  plan_cache["evictions"] = gauges.at("plan.cache_evictions");
  plan_cache["size"] = gauges.at("plan.cache_size");
  event["plan_cache"] = std::move(plan_cache);

  Json result_cache = Json::make_object();
  result_cache["hits"] = counters.at("service.cache_hits");
  result_cache["evictions"] = gauges.at("result_cache.evictions");
  result_cache["size"] = gauges.at("result_cache.size");
  result_cache["capacity"] = std::uint64_t{options.result_cache_capacity};
  event["result_cache"] = std::move(result_cache);

  Json latency_ns = Json::make_object();
  for (const std::string stage : {"queue", "plan", "exec"}) {
    latency_ns[stage] = histograms.at("latency." + stage + "_ns");
  }
  event["latency_ns"] = std::move(latency_ns);
  return event;
}

Json Session::metrics_event(const std::string& id) const {
  Json event = Json::make_object();
  event["event"] = "metrics";
  if (!id.empty()) {
    event["id"] = id;
  }
  // Like `isa` in stats: which node answered (machine/deployment shape).
  event["isa"] = std::string(qsim::isa_name(qsim::active_isa()));
  event["metrics"] = service_.metrics_snapshot();
  return event;
}

Json Session::trace_event(const std::string& id) const {
  std::shared_ptr<const obs::Trace> trace;
  {
    LockGuard lock(mutex_);
    if (const auto it = traces_.find(id); it != traces_.end()) {
      trace = it->second;
    }
  }
  if (trace == nullptr) {
    return unknown_trace_event(id);
  }
  Json event = Json::make_object();
  event["event"] = "trace";
  event["id"] = id;
  event["trace"] = trace->to_json();
  return event;
}

void Session::remember_trace(const std::string& id,
                             std::shared_ptr<const obs::Trace> trace) {
  if (trace == nullptr) {
    return;  // untraced (tracing disabled, or a cache-served repeat)
  }
  LockGuard lock(mutex_);
  if (const auto it = traces_.find(id); it != traces_.end()) {
    it->second = std::move(trace);  // id reuse: replace, keep FIFO position
    return;
  }
  traces_.emplace(id, std::move(trace));
  trace_order_.push_back(id);
  while (trace_order_.size() > kTraceIndexCapacity) {
    traces_.erase(trace_order_.front());
    trace_order_.pop_front();
  }
}

void Session::handle_line(const std::string& line, bool more_input) {
  if (!line.empty()) {
    handle_request(line, more_input);
  }
  if (!more_input) {
    flush();
  }
}

void Session::handle_request(const std::string& line, bool more_input) {
  try {
    const Json json = Json::parse(line);
    Request request = parse_request_header(json);
    const std::string& id = request.id;
    if (request.op == Request::Op::kSubmit) {
      std::optional<Json> refusal;
      {
        LockGuard lock(mutex_);
        refusal = submit_refusal(id, jobs_.contains(id), jobs_.size(),
                                 options_.inflight_limit);
      }
      if (refusal) {
        emit(*refusal);
        return;
      }
      // Spec validation only AFTER admission: a peer at its cap cannot
      // force per-line spec-parse CPU, and its malformed specs still
      // answer `overloaded` (the cap is the reason it was refused).
      request.spec = api::spec_from_json(json.at("spec"));
      std::optional<JobHandle> handle;
      try {
        handle = service_.submit(request.spec, request.priority);
      } catch (const OverloadedError& e) {
        emit(overloaded_event(id, e.what()));
        return;
      }
      {
        LockGuard lock(mutex_);
        jobs_.emplace(id, *handle);
      }
      remember_trace(id, handle->trace());
      // Ack BEFORE the emitter can see the handle: a cache-served job is
      // already done, and its result must not precede the accepted event.
      emit_line(id_event("accepted", id));
      if (!more_input) {
        flush();  // the ack leaves before the emitter can wake
      }
      {
        LockGuard lock(mutex_);
        pending_.emplace_back(id, std::move(*handle));
      }
      cv_.notify_one();
    } else if (request.op == Request::Op::kCancel) {
      std::optional<JobHandle> target;
      {
        LockGuard lock(mutex_);
        if (const auto it = jobs_.find(id); it != jobs_.end()) {
          target = it->second;
        }
      }
      if (!target.has_value()) {
        emit(unknown_cancel_event(id));
        return;
      }
      target->cancel();
      emit_line(id_event("cancelling", id));
    } else if (request.op == Request::Op::kMetrics) {
      emit(metrics_event(id));
    } else if (request.op == Request::Op::kTrace) {
      emit(trace_event(id));
    } else {
      emit(stats_event(id));
    }
  } catch (const std::exception& e) {
    emit(error_event(wire_message(e)));
  }
}

void Session::drain() {
  {
    LockGuard lock(mutex_);
    input_done_ = true;
  }
  cv_.notify_all();
  if (emitter_.joinable()) {
    emitter_.join();
  }
}

void Session::abort() {
  std::vector<JobHandle> outstanding;
  {
    LockGuard lock(mutex_);
    if (aborted_) {
      return;
    }
    aborted_ = true;
    input_done_ = true;
    // jobs_ holds every unannounced handle, including the one the emitter
    // popped from pending_ and is currently waiting on.
    outstanding.reserve(jobs_.size());
    for (const auto& [id, handle] : jobs_) {
      outstanding.push_back(handle);
    }
    jobs_.clear();
    pending_.clear();
  }
  cv_.notify_all();
  for (JobHandle& handle : outstanding) {
    handle.cancel();  // detaches this session; coalesced peers keep running
  }
}

void Session::emitter_loop() {
  std::string line;  // reused for every result line
  while (true) {
    UniqueLock lock(mutex_);
    if (!input_done_ && !aborted_ && pending_.empty()) {
      // About to sleep: what is buffered goes out first.
      lock.unlock();
      flush();
      lock.lock();
      while (!input_done_ && !aborted_ && pending_.empty()) {
        cv_.wait(lock);  // inline predicate loop: see thread_annotations.h
      }
    }
    if (aborted_ || pending_.empty()) {
      // Aborted, or input finished and everything announced.
      lock.unlock();
      flush();
      return;
    }
    auto next = std::move(pending_.front());
    pending_.pop_front();
    lock.unlock();
    if (!next.second.finished()) {
      flush();  // about to wait on the job
    }
    next.second.wait();  // abort()'s cancel also wakes this
    // Free the id BEFORE the result line goes out: a client that reacts
    // to the result by reusing the id must never race the erase.
    lock.lock();
    if (aborted_) {
      lock.unlock();
      flush();
      return;  // peer gone while we waited: announce nothing
    }
    jobs_.erase(next.first);
    lock.unlock();
    line.clear();
    write_result(next.first, next.second, options_.with_timing, line);
    emit_line(line);
  }
}

}  // namespace pqs::net
