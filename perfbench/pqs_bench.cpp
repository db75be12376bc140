// pqs_bench — the C++ half of the repository benchmark (perfbench/run.py
// is the other half: it builds, spawns and stops the servers, reads their
// CPU and memory from /proc, and prints the metrics).
//
// It drives the program only through public surfaces: the JSONL protocol
// of pqs_serve / pqs_router over net::Socket, and Engine::run, Engine::plan,
// BatchRunner, StateVector, net::parse_request and api::to_json in-process.
// Every span it records wraps one of its own calls into a layer; nothing is
// added inside the library. Each mode prints one JSON object on stdout.
//
//   --mode host       host record: cores, OpenMP threads, ISA tier, compiler
//   --mode prepare    readiness probe, then warm-up (fresh specs) or result
//                     cache fill (serve_cached_routed) of a serve deployment;
//                     set-up time runs from --t0-ns (the deployment's start)
//                     to the last warm-up result
//   --mode load       timed closed loop: 4 connections x 16 submits in
//                     flight against --connect for --seconds
//   --mode inproc     kSetups x (fresh Engine, cold plan, first-touch run),
//                     then a timed closed loop of Engine::run
//   --mode probe      in-process layer probes at the workload's spec
//   --mode wireprobe  unloaded (one connection, window 1) probe of the same
//                     cached keys via --connect (a router) and --direct
//
// Every result is checked: queries == l1 + l2 + 1 of Engine::plan(spec), a
// block answer, success_probability >= the plan's floor, on multi-shot
// specs an empirical success rate within binomial tolerance of the analytic
// one, and for a sample the report byte-equals an in-process Engine::run of
// the same spec with the timing fields zeroed.
//
// The timed phases of `load` and `inproc` also report the host's steal
// ticks (/proc/stat) over the phase, so a run slowed by the hypervisor is
// told apart from a regression.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#ifdef PQS_HAVE_OPENMP
#include <omp.h>
#endif

#include "api/engine.h"
#include "api/serialize.h"
#include "common/check.h"
#include "common/cli.h"
#include "common/json.h"
#include "common/random.h"
#include "common/timing.h"
#include "net/session.h"
#include "net/socket.h"
#include "oracle/database.h"
#include "partial/grk.h"
#include "partial/optimizer.h"
#include "qsim/batch.h"
#include "qsim/isa.h"
#include "qsim/state_vector.h"

namespace {

using namespace pqs;

// ---------------------------------------------------------------------------
// Workload shapes.

struct Shape {
  std::uint64_t n_items = 0;
  std::uint64_t n_blocks = 4;
  std::uint64_t shots = 1;
  std::string backend;  ///< empty: the server default (auto)
  /// Multi-shot specs only: every target lies in block K/2. Dense sampling
  /// walks the CDF up to the sampled index, so a shot costs in proportion
  /// to the target block's position; pinning the block gives every request
  /// the same work while the offset and the seed stay fresh.
  bool pin_target_block = false;
  /// Requests draw from this many cached specs (0: every spec fresh).
  std::size_t cached_keys = 0;
};

// The load shape of both serve workloads: one process, 4 connections (one
// thread each, the host's core count), each with 16 submits in flight.
constexpr std::size_t kConnections = 4;
constexpr std::size_t kWindow = 16;
constexpr std::size_t kWarmupRequests = 256;  ///< fresh specs, per set-up
constexpr std::size_t kSamplesPerConn = 8;    ///< reports byte-compared
/// In-process set-ups per run (fresh Engine, cold plan, first-touch run);
/// setup_s is their median.
constexpr std::size_t kSetups = 5;

Shape shape_of(const std::string& workload) {
  if (workload == "serve_fresh") {
    return Shape{16384, 4, 1, "", false, 0};
  }
  if (workload == "serve_cached_routed") {
    return Shape{16384, 4, 1, "", false, 200};  // fits 2 x 128 result caches
  }
  if (workload == "dense_large") {
    return Shape{std::uint64_t{1} << 22, 4, 1, "dense"};
  }
  if (workload == "shots_sampling") {
    return Shape{std::uint64_t{1} << 16, 4, 20000, "", true, 0};
  }
  throw CheckFailure("unknown workload \"" + workload +
                     "\" (expected serve_fresh | serve_cached_routed | "
                     "dense_large | shots_sampling)");
}

unsigned log2_of(std::uint64_t x) {
  unsigned k = 0;
  while ((std::uint64_t{1} << k) < x) {
    ++k;
  }
  return k;
}

/// The spec object a client puts on the wire: only the fields it sets.
Json spec_json(const Shape& shape, std::uint64_t target, std::uint64_t seed) {
  Json spec = Json::make_object();
  spec["algorithm"] = "grk";
  spec["n_items"] = shape.n_items;
  spec["n_blocks"] = shape.n_blocks;
  Json marked = Json::make_array();
  marked.push_back(target);
  spec["marked"] = std::move(marked);
  spec["seed"] = seed;
  spec["shots"] = shape.shots;
  if (!shape.backend.empty()) {
    spec["backend"] = shape.backend;
  }
  return spec;
}

/// A fresh (target, seed) pair. Seeds are unique per (run seed, stream,
/// counter), so no two fresh specs share a canonical key.
Json fresh_spec(const Shape& shape, std::uint64_t run_seed,
                std::uint64_t stream, std::uint64_t counter, Rng& rng) {
  const std::uint64_t seed = (run_seed << 36) ^ (stream << 28) ^ counter;
  const std::uint64_t block_size = shape.n_items / shape.n_blocks;
  const std::uint64_t target =
      shape.pin_target_block
          ? shape.n_blocks / 2 * block_size + rng.uniform_below(block_size)
          : rng.uniform_below(shape.n_items);
  return spec_json(shape, target, seed);
}

/// The cached workload's key set: `count` distinct specs from the run seed.
std::vector<std::string> key_specs(const Shape& shape, std::uint64_t run_seed,
                                   std::size_t count) {
  Rng rng(run_seed * 0x9e3779b97f4a7c15ULL + 17);
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < count; ++i) {
    keys.push_back(
        spec_json(shape, rng.uniform_below(shape.n_items), run_seed * 1000003 + i)
            .dump());
  }
  return keys;
}

// ---------------------------------------------------------------------------
// Small statistics helpers.

double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return percentile_sorted(values, 0.5);
}

/// Exact client-side percentiles from raw samples. p99 is reported only
/// when at least ten samples lie beyond it.
Json latency_summary(std::vector<double> ms) {
  std::sort(ms.begin(), ms.end());
  Json json = Json::make_object();
  json["samples"] = std::uint64_t{ms.size()};
  json["p50_ms"] = percentile_sorted(ms, 0.50);
  const bool p99_resolved = ms.size() >= 1000;
  json["p99_resolved"] = p99_resolved;
  json["p99_ms"] = p99_resolved ? percentile_sorted(ms, 0.99) : 0.0;
  json["max_ms"] = ms.empty() ? 0.0 : ms.back();
  return json;
}

/// Completions per second as the median over (up to) 20 equal-count
/// segments of the timed phase, so a host hiccup of a second or two moves
/// one segment rather than the whole figure. `done_ns` are completion times
/// on the phase clock, which started at 0.
double median_segment_rate(std::vector<std::uint64_t> done_ns) {
  if (done_ns.empty()) {
    return 0.0;
  }
  std::sort(done_ns.begin(), done_ns.end());
  const std::size_t segments = std::min<std::size_t>(20, done_ns.size());
  const std::size_t per = done_ns.size() / segments;
  std::vector<double> rates;
  std::uint64_t begin = 0;
  for (std::size_t j = 1; j <= segments; ++j) {
    const std::uint64_t end = done_ns[j * per - 1];
    rates.push_back(static_cast<double>(per) * 1e9 /
                    static_cast<double>(std::max<std::uint64_t>(end - begin, 1)));
    begin = end;
  }
  return median(rates);
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The host's aggregate CPU ticks from the first line of /proc/stat: the
/// steal ticks (time the hypervisor ran something else) and all ticks.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

CpuTicks cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  CpuTicks ticks;
  if (label != "cpu") {
    return ticks;  // not Linux: no steal reading
  }
  // user nice system idle iowait irq softirq steal (guest time is already
  // counted in user and nice).
  for (int field = 0; field < 8; ++field) {
    std::uint64_t value = 0;
    stat >> value;
    ticks.total += value;
    if (field == 7) {
      ticks.steal = value;
    }
  }
  return ticks;
}

/// The steal over a phase, for the run record.
Json steal_json(const CpuTicks& before, const CpuTicks& after) {
  Json json = Json::make_object();
  json["steal_ticks"] = after.steal - before.steal;
  json["cpu_ticks"] = after.total - before.total;
  return json;
}

/// Nanoseconds on the monotonic clock that run.py's time.monotonic_ns()
/// reads, so a span can start in one process and end in another.
std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          steady_now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Correctness.

/// What every report of one shape must satisfy, from Engine::plan.
struct Expectation {
  std::uint64_t queries = 0;
  double floor = 0.0;
  std::uint64_t shots = 1;
  std::uint64_t block_shift = 0;  ///< target block = target >> block_shift
};

Expectation expectation_for(const Engine& engine, const Shape& shape) {
  const SearchSpec spec = api::spec_from_json(spec_json(shape, 0, 1));
  const Plan plan = engine.plan(spec);
  Expectation expect;
  expect.queries = plan.schedule.l1 + plan.schedule.l2 + 1;
  expect.floor = partial::default_min_success(shape.n_items);
  expect.shots = shape.shots;
  expect.block_shift = log2_of(shape.n_items) - log2_of(shape.n_blocks);
  return expect;
}

/// Empty when `report` is a correct answer to a spec with this target;
/// otherwise the reason.
std::string check_report(const Expectation& expect, std::uint64_t target,
                         const Json& report) {
  if (report.at("queries").as_uint() != expect.queries) {
    return "queries " + std::to_string(report.at("queries").as_uint()) +
           " != planned l1 + l2 + 1 = " + std::to_string(expect.queries);
  }
  if (!report.at("block_answer").as_bool()) {
    return "block_answer is not set";
  }
  const double p = report.at("success_probability").as_double();
  if (p < expect.floor - 1e-12) {
    return "success_probability " + std::to_string(p) + " below floor " +
           std::to_string(expect.floor);
  }
  if (expect.shots > 1) {
    // The modal block must be the target's, and its frequency (the
    // empirical success rate) within 6 sigma + one shot of the analytic p.
    if (report.at("measured").as_uint() != (target >> expect.block_shift)) {
      return "modal block is not the target block";
    }
    double freq = -1.0;
    unsigned long long shots = 0;
    if (std::sscanf(report.at("detail").as_string().c_str(),
                    "mode frequency %lf over %llu shots", &freq, &shots) != 2 ||
        shots != expect.shots) {
      return "detail does not state the mode frequency over " +
             std::to_string(expect.shots) + " shots";
    }
    const double n = static_cast<double>(shots);
    const double tolerance = 6.0 * std::sqrt(p * (1.0 - p) / n) + 1.0 / n;
    if (std::abs(freq - p) > tolerance) {
      return "empirical success rate " + std::to_string(freq) +
             " differs from analytic " + std::to_string(p) + " by more than " +
             std::to_string(tolerance);
    }
  }
  return "";
}

/// A report serialized as the server sends it when --timing is off.
std::string timing_free_dump(SearchReport report) {
  report.queue_ns = 0;
  report.plan_ns = 0;
  report.exec_ns = 0;
  report.plan_cache_hit = false;
  return api::to_json(report).dump();
}

/// The report an in-process Engine::run gives, as the server sends it.
std::string local_report_dump(const Engine& engine, const SearchSpec& spec) {
  return timing_free_dump(engine.run(spec));
}

std::uint64_t target_of(const Json& spec) {
  return spec.at("marked").as_array().front().as_uint();
}

// ---------------------------------------------------------------------------
// Wire helpers.

/// Send one connection-level op and return its synchronous reply.
Json round_trip(net::Socket& socket, net::LineReader& reader,
                const std::string& line) {
  PQS_CHECK_MSG(socket.write_all(line + "\n"), "server closed the connection");
  std::string reply;
  PQS_CHECK_MSG(reader.next_line(reply), "server closed the connection");
  return Json::parse(reply);
}

/// Readiness probe: connect (retrying while the server binds) and wait for
/// the answer to a `metrics` op, which a router answers only once it has
/// reached every worker.
Json fetch_metrics(const net::Addr& endpoint) {
  net::Socket socket =
      net::connect_with_retry(endpoint, std::chrono::milliseconds(10000));
  net::LineReader reader(socket);
  const Json event = round_trip(socket, reader, R"({"op":"metrics","id":"m"})");
  PQS_CHECK_MSG(event.at("event").as_string() == "metrics",
                "endpoint " + endpoint.to_string() +
                    " did not answer the metrics op: " + event.dump());
  return event.at("metrics");
}

// ---------------------------------------------------------------------------
// The closed loop.

struct LoopConfig {
  net::Addr endpoint;
  Shape shape;
  std::uint64_t seed = 1;
  std::uint64_t stream = 0;         ///< separates warm-up from timed specs
  double seconds = 0.0;             ///< > 0: time-bounded phase
  std::size_t requests_per_conn = 0;  ///< else: count-bounded phase
  const std::vector<std::string>* keys = nullptr;  ///< null: fresh specs
  bool trace = false;
};

/// One request's client-side timeline (trace mode), ns on the loop clock.
struct RequestSpans {
  std::uint64_t n = 0;
  std::uint64_t send = 0, sent = 0, ack = 0, result = 0;
  Json server;  ///< the server's trace timeline, when fetched
};

struct ConnTally {
  std::size_t sent = 0, accepted = 0, overloaded = 0, errors = 0;
  std::size_t results = 0, incorrect = 0;
  std::vector<double> latency_ms;  ///< results that landed in the window
  std::vector<std::uint64_t> done_ns;  ///< their completion times
  std::vector<std::pair<std::string, std::string>> samples;  ///< spec, report
  std::vector<std::string> failures;
  std::vector<RequestSpans> spans;
};

struct Inflight {
  std::string spec;
  std::uint64_t target = 0;
  std::size_t span_index = 0;
  std::uint64_t send_ns = 0;
};

void note_failure(ConnTally& tally, const std::string& reason) {
  if (tally.failures.size() < 5) {
    tally.failures.push_back(reason);
  }
}

void run_connection(const LoopConfig& config, const Expectation& expect,
                    const Stopwatch& clock, std::size_t conn,
                    ConnTally& tally) {
  net::Socket socket = net::connect_with_retry(config.endpoint,
                                               std::chrono::milliseconds(10000));
  net::LineReader reader(socket);
  Rng rng(config.seed * 7919 + conn * 104729 + config.stream);
  const auto deadline_ns = static_cast<std::uint64_t>(config.seconds * 1e9);
  std::unordered_map<std::string, Inflight> inflight;
  std::deque<std::string> awaiting_ack;
  const std::size_t sample_every = 61;
  std::string line;
  while (true) {
    const bool more = config.seconds > 0 ? clock.nanos() < deadline_ns
                                         : tally.sent < config.requests_per_conn;
    if (more && inflight.size() < kWindow) {
      Inflight request;
      if (config.keys != nullptr) {
        request.spec = (*config.keys)[rng.uniform_below(config.keys->size())];
        request.target = target_of(Json::parse(request.spec));
      } else {
        const Json spec = fresh_spec(config.shape, config.seed,
                                     config.stream * 64 + conn, tally.sent, rng);
        request.target = target_of(spec);
        request.spec = spec.dump();
      }
      const std::string id =
          "c" + std::to_string(conn) + "-" + std::to_string(tally.sent);
      request.send_ns = clock.nanos();
      const bool ok = socket.write_all(R"({"op":"submit","id":")" + id +
                                       R"(","spec":)" + request.spec + "}\n");
      PQS_CHECK_MSG(ok, "server closed connection " + std::to_string(conn));
      if (config.trace) {
        request.span_index = tally.spans.size();
        tally.spans.push_back(
            RequestSpans{tally.sent, request.send_ns, clock.nanos(), 0, 0, Json()});
      }
      inflight.emplace(id, std::move(request));
      awaiting_ack.push_back(id);
      ++tally.sent;
      continue;
    }
    if (inflight.empty()) {
      break;
    }
    PQS_CHECK_MSG(reader.next_line(line),
                  "server closed connection " + std::to_string(conn) +
                      " with " + std::to_string(inflight.size()) +
                      " requests unanswered");
    const std::uint64_t now = clock.nanos();
    const Json event = Json::parse(line);
    const std::string& kind = event.at("event").as_string();
    if (kind != "result") {
      PQS_CHECK_MSG(!awaiting_ack.empty(), "unpaired ack: " + line);
      const std::string id = std::move(awaiting_ack.front());
      awaiting_ack.pop_front();
      if (kind == "accepted") {
        ++tally.accepted;
        if (config.trace) {
          tally.spans[inflight.at(id).span_index].ack = now;
        }
        continue;
      }
      if (kind == "overloaded") {
        ++tally.overloaded;
      } else {
        ++tally.errors;
      }
      note_failure(tally, line);
      inflight.erase(id);
      continue;
    }
    const std::string& id = event.at("id").as_string();
    const auto it = inflight.find(id);
    PQS_CHECK_MSG(it != inflight.end(), "result for unknown id " + id);
    ++tally.results;
    std::string reason = event.at("status").as_string() == "done"
                             ? check_report(expect, it->second.target,
                                            event.at("report"))
                             : "status " + event.at("status").as_string();
    if (!reason.empty()) {
      ++tally.incorrect;
      note_failure(tally, id + ": " + reason);
    } else if (tally.results % sample_every == 1 &&
               tally.samples.size() < kSamplesPerConn) {
      tally.samples.emplace_back(it->second.spec, event.at("report").dump());
    }
    if (config.seconds <= 0 || now <= deadline_ns) {
      tally.latency_ms.push_back(
          static_cast<double>(now - it->second.send_ns) / 1e6);
      tally.done_ns.push_back(now);
    }
    if (config.trace) {
      tally.spans[it->second.span_index].result = now;
    }
    inflight.erase(it);
  }

  // Trace mode: fetch the server timelines of a sample of this session's
  // last requests (sessions and routers remember the last 4096 ids).
  if (config.trace && !tally.spans.empty()) {
    const std::size_t first =
        tally.spans.size() > 4000 ? tally.spans.size() - 4000 : 0;
    const std::size_t stride = std::max<std::size_t>(1, (tally.spans.size() - first) / 16);
    for (std::size_t i = first; i < tally.spans.size(); i += stride) {
      RequestSpans& spans = tally.spans[i];
      if (spans.result == 0) {
        continue;
      }
      const Json reply = round_trip(
          socket, reader,
          R"({"op":"trace","id":"c)" + std::to_string(conn) + "-" +
              std::to_string(spans.n) + R"("})");
      if (reply.at("event").as_string() == "trace") {
        spans.server = reply.at("trace");
      }
    }
  }
}

ConnTally run_loop(const LoopConfig& config, const Expectation& expect) {
  std::vector<ConnTally> tallies(kConnections);
  std::vector<std::string> errors(kConnections);
  std::vector<std::thread> threads;
  Stopwatch clock;
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      try {
        run_connection(config, expect, clock, c, tallies[c]);
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  ConnTally total;
  for (std::size_t c = 0; c < kConnections; ++c) {
    PQS_CHECK_MSG(errors[c].empty(), "connection " + std::to_string(c) + ": " +
                                         errors[c]);
    ConnTally& t = tallies[c];
    total.sent += t.sent;
    total.accepted += t.accepted;
    total.overloaded += t.overloaded;
    total.errors += t.errors;
    total.results += t.results;
    total.incorrect += t.incorrect;
    total.latency_ms.insert(total.latency_ms.end(), t.latency_ms.begin(),
                            t.latency_ms.end());
    total.done_ns.insert(total.done_ns.end(), t.done_ns.begin(), t.done_ns.end());
    total.samples.insert(total.samples.end(), t.samples.begin(), t.samples.end());
    for (const std::string& f : t.failures) {
      note_failure(total, f);
    }
    for (RequestSpans& s : t.spans) {
      s.n = s.n * 64 + c;  // unique across connections in the spans file
      total.spans.push_back(std::move(s));
    }
  }
  return total;
}

/// Verify sampled reports byte-for-byte against in-process Engine::run.
/// Runs after the timed phase so the check never competes with the server.
std::size_t verify_samples(const Engine& engine, ConnTally& tally) {
  std::size_t mismatches = 0;
  for (const auto& [spec, report] : tally.samples) {
    if (local_report_dump(engine, api::spec_from_json(Json::parse(spec))) !=
        report) {
      ++mismatches;
      note_failure(tally, "report differs from in-process Engine::run: " + spec);
    }
  }
  return mismatches;
}

/// Span p50s of the traced requests: the client-side layers, and — where
/// the server timeline was fetched — the server stages and the residual.
Json self_times(const std::vector<RequestSpans>& spans) {
  std::vector<double> write_us, ack_us, result_ms, residual_ms, queue_ms,
      engine_ms, shots_ms, service_ms;
  const auto span_at = [](const Json& server, const std::string& name,
                          double& out) {
    for (const Json& s : server.at("spans").as_array()) {
      if (s.at("name").as_string() == name) {
        out = static_cast<double>(s.at("t_ns").as_uint()) / 1e6;
        return true;
      }
    }
    return false;
  };
  for (const RequestSpans& s : spans) {
    if (s.result == 0 || s.ack == 0) {
      continue;
    }
    write_us.push_back(static_cast<double>(s.sent - s.send) / 1e3);
    ack_us.push_back(static_cast<double>(s.ack - s.sent) / 1e3);
    result_ms.push_back(static_cast<double>(s.result - s.ack) / 1e6);
    if (s.server.is_null()) {
      continue;
    }
    const double total = static_cast<double>(s.server.at("total_ns").as_uint()) / 1e6;
    residual_ms.push_back(static_cast<double>(s.result - s.send) / 1e6 - total);
    double enq = 0, exec = 0, run_b = 0, run_e = 0, shot_b = 0, shot_e = 0;
    double queue = 0, shots = 0;
    if (span_at(s.server, "queue.enqueued", enq) &&
        span_at(s.server, "exec.begin", exec)) {
      queue = exec - enq;
      queue_ms.push_back(queue);
    }
    if (span_at(s.server, "shots.begin", shot_b) &&
        span_at(s.server, "shots.end", shot_e)) {
      shots = shot_e - shot_b;
      shots_ms.push_back(shots);
    }
    if (span_at(s.server, "engine.run.begin", run_b) &&
        span_at(s.server, "engine.run.end", run_e)) {
      engine_ms.push_back(run_e - run_b - shots);
      service_ms.push_back(total - (run_e - run_b) - queue);
    }
  }
  Json json = Json::make_object();
  json["traced_requests"] = std::uint64_t{write_us.size()};
  json["server_timelines"] = std::uint64_t{residual_ms.size()};
  json["net.write_us"] = median(write_us);
  json["net.ack_us"] = median(ack_us);
  json["net.result_wait_ms"] = median(result_ms);
  json["net.residual_ms"] = median(residual_ms);
  json["service.queue_ms"] = median(queue_ms);
  json["service.self_ms"] = median(service_ms);
  json["api.engine_self_ms"] = median(engine_ms);
  json["batch.shots_ms"] = median(shots_ms);
  return json;
}

void write_spans(const std::string& path, const std::vector<RequestSpans>& spans) {
  if (path.empty()) {
    return;
  }
  std::ofstream out(path);
  PQS_CHECK_MSG(out.good(), "cannot write " + path);
  for (const RequestSpans& s : spans) {
    Json line = Json::make_object();
    line["request"] = s.n;
    line["send_ns"] = s.send;
    line["sent_ns"] = s.sent;
    line["ack_ns"] = s.ack;
    line["result_ns"] = s.result;
    if (!s.server.is_null()) {
      line["server"] = s.server;
    }
    out << line.dump() << "\n";
  }
}

Json tally_json(const ConnTally& t) {
  Json json = Json::make_object();
  json["attempted"] = std::uint64_t{t.sent};
  json["accepted"] = std::uint64_t{t.accepted};
  json["overloaded"] = std::uint64_t{t.overloaded};
  json["errors"] = std::uint64_t{t.errors};
  json["results"] = std::uint64_t{t.results};
  json["incorrect"] = std::uint64_t{t.incorrect};
  json["missing"] = std::uint64_t{t.accepted - std::min(t.accepted, t.results)};
  Json failures = Json::make_array();
  for (const std::string& f : t.failures) {
    failures.push_back(f);
  }
  json["failures"] = std::move(failures);
  return json;
}

// ---------------------------------------------------------------------------
// Modes.

LoopConfig loop_config(Cli& cli, const Shape& shape) {
  LoopConfig config;
  config.shape = shape;
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1, "run seed"));
  config.endpoint = net::parse_hostport(cli.get_string("connect", "", "endpoint"));
  return config;
}

int mode_host() {
  Json json = Json::make_object();
  json["nproc"] = std::uint64_t{std::thread::hardware_concurrency()};
#ifdef PQS_HAVE_OPENMP
  json["omp_max_threads"] = std::uint64_t{static_cast<unsigned>(omp_get_max_threads())};
#else
  json["omp_max_threads"] = std::uint64_t{1};
#endif
  json["isa"] = std::string(qsim::isa_name(qsim::active_isa()));
  json["compiler"] = PQS_BENCH_COMPILER;
  json["build_type"] = PQS_BENCH_BUILD_TYPE;
  std::cout << json.dump() << "\n";
  return 0;
}

/// Readiness, then warm-up: a count-bounded closed loop of fresh specs, or
/// (cached workload) one submit of every cache key, then a second pass.
/// setup_s ends at the last warm-up result; the sampled reports are
/// verified after that, outside the figure.
int mode_prepare(Cli& cli, const Shape& shape) {
  LoopConfig config = loop_config(cli, shape);
  const auto t0_ns = static_cast<std::uint64_t>(
      cli.get_int("t0-ns", 0, "monotonic ns at which the deployment started"));
  cli.finish();
  PQS_CHECK_MSG(t0_ns > 0 && t0_ns <= monotonic_ns(),
                "--t0-ns must be the deployment's start on the monotonic clock");
  fetch_metrics(config.endpoint);

  const Engine engine;
  const Expectation expect = expectation_for(engine, shape);
  config.stream = 1;  // warm-up specs never repeat a timed-phase key
  ConnTally total;
  if (shape.cached_keys == 0) {
    config.requests_per_conn = kWarmupRequests / kConnections;
    total = run_loop(config, expect);
  } else {
    const std::vector<std::string> key_set =
        key_specs(shape, config.seed, shape.cached_keys);
    // Fill: every key once on one connection, then a second pass that
    // the caches answer.
    for (std::size_t pass = 0; pass < 2; ++pass) {
      net::Socket socket = net::connect_with_retry(
          config.endpoint, std::chrono::milliseconds(10000));
      net::LineReader reader(socket);
      for (std::size_t i = 0; i < key_set.size(); ++i) {
        PQS_CHECK_MSG(socket.write_all(R"({"op":"submit","id":"f)" +
                                       std::to_string(i) + R"(","spec":)" +
                                       key_set[i] + "}\n"),
                      "server closed the fill connection");
        ++total.sent;
      }
      std::string line;
      std::size_t pending = key_set.size() * 2;  // one ack + one result each
      while (pending > 0 && reader.next_line(line)) {
        const Json event = Json::parse(line);
        const std::string& kind = event.at("event").as_string();
        --pending;
        if (kind == "accepted") {
          ++total.accepted;
        } else if (kind == "result") {
          ++total.results;
          const std::size_t i =
              std::stoul(event.at("id").as_string().substr(1));
          const std::string reason =
              check_report(expect, target_of(Json::parse(key_set[i])),
                           event.at("report"));
          if (!reason.empty()) {
            ++total.incorrect;
            note_failure(total, reason);
          } else if (pass == 0 && i % 25 == 0) {
            total.samples.emplace_back(key_set[i], event.at("report").dump());
          }
        } else {
          --pending;  // a refused submit gets no result
          ++total.errors;
          note_failure(total, line);
        }
      }
    }
  }
  const double setup_s = static_cast<double>(monotonic_ns() - t0_ns) / 1e9;
  total.incorrect += verify_samples(engine, total);
  Json json = tally_json(total);
  json["ok"] = total.incorrect == 0 && total.errors == 0 &&
               total.overloaded == 0 && total.results == total.accepted &&
               total.failures.empty();
  json["setup_s"] = setup_s;
  std::cout << json.dump() << "\n";
  return 0;
}

int mode_load(Cli& cli, const Shape& shape) {
  LoopConfig config = loop_config(cli, shape);
  config.seconds = cli.get_double("seconds", 10.0, "timed phase length");
  config.trace = cli.get_bool("trace", false, "record spans");
  const std::string spans_out =
      cli.get_string("spans-out", "", "write the request spans here (JSONL)");
  cli.finish();
  const std::vector<std::string> key_set =
      key_specs(shape, config.seed, shape.cached_keys);
  config.keys = shape.cached_keys > 0 ? &key_set : nullptr;
  config.stream = config.trace ? 3 : 2;

  const Engine engine;
  const Expectation expect = expectation_for(engine, shape);
  const Json before = fetch_metrics(config.endpoint);
  const CpuTicks ticks0 = cpu_ticks();
  ConnTally total = run_loop(config, expect);
  const CpuTicks ticks1 = cpu_ticks();
  const Json after = fetch_metrics(config.endpoint);
  const std::size_t mismatches = verify_samples(engine, total);
  write_spans(spans_out, total.spans);

  Json json = tally_json(total);
  json["incorrect"] = std::uint64_t{total.incorrect + mismatches};
  json["verified_samples"] = std::uint64_t{total.samples.size()};
  json["throughput_rps"] = median_segment_rate(total.done_ns);
  json["latency"] = latency_summary(total.latency_ms);
  json["metrics_before"] = before;
  json["metrics_after"] = after;
  json["steal"] = steal_json(ticks0, ticks1);
  if (config.trace) {
    json["self_time"] = self_times(total.spans);
  }
  std::cout << json.dump() << "\n";
  return 0;
}

/// One timed closed loop of Engine::run on fresh specs.
struct InprocPhase {
  std::vector<double> latency_ms;
  std::vector<std::uint64_t> done_ns;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;  ///< trace mode
  std::size_t attempted = 0, incorrect = 0;
  std::vector<std::string> failures;
  double elapsed = 0.0;
  double cpu = 0.0;
  std::string first_spec, first_report;
};

InprocPhase run_inproc_phase(const Engine& engine, const Shape& shape,
                             const Expectation& expect, std::uint64_t seed,
                             std::uint64_t stream, double seconds, bool trace) {
  InprocPhase phase;
  Rng rng(seed * 7919 + stream);
  const double cpu0 = cpu_seconds();
  Stopwatch clock;
  while (clock.seconds() < seconds) {
    const Json spec = fresh_spec(shape, seed, stream, phase.attempted, rng);
    const SearchSpec parsed = api::spec_from_json(spec);
    const std::uint64_t begin = clock.nanos();
    const SearchReport report = engine.run(parsed);
    const std::uint64_t end = clock.nanos();
    phase.latency_ms.push_back(static_cast<double>(end - begin) / 1e6);
    phase.done_ns.push_back(end);
    if (trace) {
      phase.spans.emplace_back(begin, end);
    }
    ++phase.attempted;
    const Json report_json = api::to_json(report);
    const std::string reason = check_report(expect, target_of(spec), report_json);
    if (!reason.empty()) {
      ++phase.incorrect;
      if (phase.failures.size() < 5) {
        phase.failures.push_back(reason);
      }
    }
    if (phase.first_spec.empty()) {
      phase.first_spec = spec.dump();
      phase.first_report = timing_free_dump(report);
    }
  }
  phase.elapsed = clock.seconds();
  phase.cpu = cpu_seconds() - cpu0;
  return phase;
}

int mode_inproc(Cli& cli, const Shape& shape) {
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1, "run seed"));
  const double seconds = cli.get_double("seconds", 10.0, "timed phase length");
  const bool trace = cli.get_bool("trace", false, "also run a traced phase");
  const std::string spans_out =
      cli.get_string("spans-out", "", "write the traced spans here (JSONL)");
  cli.finish();

  // Set-up, repeated: a fresh Engine, its cold plan, and one first-touch
  // run of a warm-up spec. The last Engine serves the timed phase.
  std::vector<double> setup_s;
  std::unique_ptr<Engine> engine;
  Expectation expect;
  Rng warm_rng(seed + 99);
  for (std::size_t r = 0; r < kSetups; ++r) {
    Stopwatch watch;
    engine = std::make_unique<Engine>();
    expect = expectation_for(*engine, shape);
    const Json warm = fresh_spec(shape, seed, 1, r, warm_rng);
    const std::string reason = check_report(
        expect, target_of(warm), api::to_json(engine->run(api::spec_from_json(warm))));
    PQS_CHECK_MSG(reason.empty(), "warm-up run: " + reason);
    setup_s.push_back(watch.seconds());
  }

  const std::uint64_t hits0 = engine->planner().hits();
  const std::uint64_t misses0 = engine->planner().misses();
  const CpuTicks ticks0 = cpu_ticks();
  InprocPhase phase =
      run_inproc_phase(*engine, shape, expect, seed, 2, seconds, false);
  const CpuTicks ticks1 = cpu_ticks();
  const std::uint64_t hits = engine->planner().hits() - hits0;
  const std::uint64_t misses = engine->planner().misses() - misses0;

  // Determinism: the first timed spec again, byte for byte.
  const std::size_t mismatches =
      local_report_dump(*engine, api::spec_from_json(Json::parse(phase.first_spec))) ==
              phase.first_report
          ? 0
          : 1;

  Json json = Json::make_object();
  json["setup_s"] = median(setup_s);
  json["attempted"] = std::uint64_t{phase.attempted};
  json["incorrect"] = std::uint64_t{phase.incorrect + mismatches};
  json["seconds"] = phase.elapsed;
  json["throughput_rps"] = median_segment_rate(phase.done_ns);
  json["latency"] = latency_summary(phase.latency_ms);
  json["cpu_ms_per_req"] = phase.cpu * 1e3 / static_cast<double>(phase.attempted);
  json["plan_hit_frac"] =
      hits + misses == 0 ? 0.0
                         : static_cast<double>(hits) / static_cast<double>(hits + misses);
  json["steal"] = steal_json(ticks0, ticks1);
  if (trace) {
    // The traced phase: the same loop with a span kept per Engine::run.
    InprocPhase traced =
        run_inproc_phase(*engine, shape, expect, seed, 3, seconds, true);
    if (!spans_out.empty()) {
      std::ofstream out(spans_out);
      PQS_CHECK_MSG(out.good(), "cannot write " + spans_out);
      for (const auto& [begin, end] : traced.spans) {
        out << R"({"span":"api.engine_run","begin_ns":)" << begin
            << R"(,"end_ns":)" << end << "}\n";
      }
    }
    json["traced_throughput_rps"] = median_segment_rate(traced.done_ns);
    json["traced_engine_run_ms_p50"] = median(traced.latency_ms);
    json["incorrect"] = std::uint64_t{json.at("incorrect").as_uint() + traced.incorrect};
    phase.failures.insert(phase.failures.end(), traced.failures.begin(),
                          traced.failures.end());
  }
  Json failures = Json::make_array();
  for (const std::string& f : phase.failures) {
    failures.push_back(f);
  }
  json["failures"] = std::move(failures);
  json["peak_rss_mb"] = peak_rss_mb();
  std::cout << json.dump() << "\n";
  return 0;
}

/// Median microseconds of `op` over `reps` calls.
template <typename Op>
double time_us(std::size_t reps, Op&& op) {
  std::vector<double> us;
  us.reserve(reps);
  for (std::size_t i = 0; i < reps; ++i) {
    Stopwatch watch;
    op(i);
    us.push_back(watch.seconds() * 1e6);
  }
  return median(us);
}

int mode_probe(Cli& cli, const Shape& shape) {
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1, "run seed"));
  cli.finish();
  const unsigned n = log2_of(shape.n_items);
  const unsigned k = log2_of(shape.n_blocks);
  const bool large = n >= 20;
  Rng rng(seed * 31 + 5);
  Json json = Json::make_object();

  // qsim: the three sweeps of a partial-search iteration, each timed alone,
  // in the order a Grover step runs them.
  {
    qsim::StateVector state = qsim::StateVector::uniform(n);
    const std::size_t reps = large ? 20 : 400;
    const qsim::Index target = rng.uniform_below(shape.n_items);
    std::vector<double> oracle, reflect, block;
    for (std::size_t i = 0; i < reps; ++i) {
      Stopwatch a;
      state.phase_flip(target);
      oracle.push_back(a.seconds() * 1e6);
      Stopwatch b;
      state.reflect_about_uniform();
      reflect.push_back(b.seconds() * 1e6);
      state.phase_flip(target);
      Stopwatch c;
      state.reflect_blocks_about_uniform(k);
      block.push_back(c.seconds() * 1e6);
    }
    json["qsim.oracle_us"] = median(oracle);
    json["qsim.reflect_us"] = median(reflect);
    json["qsim.block_reflect_us"] = median(block);
  }

  // api: cold plan on fresh Engines, then Engine::run on fresh specs.
  std::vector<double> plan_ms;
  for (int r = 0; r < 3; ++r) {
    const Engine fresh;
    Stopwatch watch;
    fresh.plan(api::spec_from_json(spec_json(shape, 0, 1)));
    plan_ms.push_back(watch.millis());
  }
  json["api.plan_cold_ms"] = median(plan_ms);
  const Engine engine;
  const Expectation expect = expectation_for(engine, shape);
  std::vector<std::string> lines;
  std::vector<SearchReport> reports;
  std::vector<double> run_ms;
  const std::size_t runs = large ? 3 : (shape.shots > 1 ? 8 : 50);
  for (std::size_t i = 0; i < runs; ++i) {
    const Json spec = fresh_spec(shape, seed, 5, i, rng);
    lines.push_back(R"({"op":"submit","id":"p)" + std::to_string(i) +
                    R"(","spec":)" + spec.dump() + "}");
    Stopwatch watch;
    reports.push_back(engine.run(api::spec_from_json(spec)));
    run_ms.push_back(watch.millis());
    PQS_CHECK_MSG(check_report(expect, target_of(spec), api::to_json(reports.back()))
                      .empty(),
                  "probe run failed its check");
  }
  json["api.engine_run_ms_p50"] = median(run_ms);
  // Computed, in-cache: one amplitude update per item per query sweep, 16
  // bytes read and 16 written per update.
  const double updates = static_cast<double>(expect.queries) *
                         static_cast<double>(shape.n_items);
  json["qsim.amp_updates"] = updates;
  json["qsim.gbps_computed"] = updates * 32.0 / (median(run_ms) * 1e-3) / 1e9;

  // net: parse the workload's own request lines; serialize its reports.
  json["net.parse_us"] = time_us(2000, [&](std::size_t i) {
    const net::Request request = net::parse_request(lines[i % lines.size()]);
    PQS_CHECK(request.spec.n_items == shape.n_items);
  });
  json["net.report_json_us"] = time_us(2000, [&](std::size_t i) {
    const std::string dump = api::to_json(reports[i % reports.size()]).dump();
    PQS_CHECK(!dump.empty());
  });

  // batch: evolve the workload's spec, then sample its shots.
  {
    const std::uint64_t target = rng.uniform_below(shape.n_items);
    const oracle::Database db(shape.n_items, target);
    const Plan plan = engine.plan(api::spec_from_json(spec_json(shape, target, 1)));
    const qsim::BackendKind kind = shape.backend.empty()
                                       ? qsim::BackendKind::kAuto
                                       : qsim::parse_backend_kind(shape.backend);
    std::vector<double> evolve_ms, sample_us;
    const qsim::BatchRunner runner(qsim::BatchOptions{0, seed, nullptr});
    const std::uint64_t shots = shape.shots > 1 ? shape.shots : (large ? 32 : 2000);
    for (int r = 0; r < (large ? 2 : 5); ++r) {
      Stopwatch watch;
      const auto backend = partial::evolve_partial_search_on_backend(
          db, k, plan.schedule.l1, plan.schedule.l2, kind);
      evolve_ms.push_back(watch.millis());
      Stopwatch sample;
      const qsim::ShotReport shot_report = runner.sample_block_shots(*backend, shots, 0);
      sample_us.push_back(sample.seconds() * 1e6 / static_cast<double>(shots));
      PQS_CHECK_MSG(shot_report.shots == shots, "probe sampled the wrong shot count");
    }
    json["batch.evolve_ms"] = median(evolve_ms);
    json["batch.sample_us_per_shot"] = median(sample_us);
    json["batch.threads"] = std::uint64_t{runner.threads()};
  }
  std::cout << json.dump() << "\n";
  return 0;
}

/// Unloaded probe: a few fresh specs executed through the router, then the
/// same (now cached) keys alternately via the router and direct to the
/// worker. Each executed request's residual is its client RTT minus the
/// server's own timeline.
int mode_wireprobe(Cli& cli, const Shape& shape) {
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1, "run seed"));
  const std::string connect = cli.get_string("connect", "", "router endpoint");
  const std::string direct = cli.get_string("direct", "", "worker endpoint");
  cli.finish();
  const bool large = shape.n_items >= (std::uint64_t{1} << 20);
  const std::size_t distinct = large ? 2 : 8;   // fresh specs executed
  const std::size_t repeats = large ? 40 : 100;  // cached round trips each
  const Engine engine;
  const Expectation expect = expectation_for(engine, shape);
  const net::Addr router_addr = net::parse_hostport(connect);
  const net::Addr direct_addr = net::parse_hostport(direct);
  const Json before = fetch_metrics(router_addr);

  net::Socket router = net::connect_with_retry(router_addr, std::chrono::milliseconds(10000));
  net::LineReader router_reader(router);
  net::Socket worker = net::connect_with_retry(direct_addr, std::chrono::milliseconds(10000));
  net::LineReader worker_reader(worker);
  std::size_t attempted = 0, incorrect = 0, sequence = 0;
  std::vector<std::string> failures;
  // One submit, window 1: returns the RTT in ms (ack + result read).
  const auto submit = [&](net::Socket& socket, net::LineReader& reader,
                          const std::string& spec) {
    const std::string id = "w" + std::to_string(sequence++);
    Stopwatch watch;
    PQS_CHECK_MSG(socket.write_all(R"({"op":"submit","id":")" + id +
                                   R"(","spec":)" + spec + "}\n"),
                  "probe connection closed");
    std::string line;
    PQS_CHECK_MSG(reader.next_line(line), "probe connection closed");
    PQS_CHECK_MSG(Json::parse(line).at("event").as_string() == "accepted",
                  "probe submit refused: " + line);
    PQS_CHECK_MSG(reader.next_line(line), "probe connection closed");
    const double ms = watch.millis();
    ++attempted;
    const Json event = Json::parse(line);
    const std::string reason =
        check_report(expect, target_of(Json::parse(spec)), event.at("report"));
    if (!reason.empty()) {
      ++incorrect;
      failures.push_back(reason);
    }
    return std::make_pair(ms, id);
  };

  Rng rng(seed * 13 + 7);
  std::vector<std::string> specs;
  std::vector<double> residual_ms;
  for (std::size_t i = 0; i < distinct; ++i) {
    specs.push_back(fresh_spec(shape, seed, 7, i, rng).dump());
    const auto [rtt, id] = submit(router, router_reader, specs.back());
    const Json reply = round_trip(router, router_reader,
                                  R"({"op":"trace","id":")" + id + R"("})");
    if (reply.at("event").as_string() == "trace") {
      residual_ms.push_back(
          rtt - static_cast<double>(reply.at("trace").at("total_ns").as_uint()) / 1e6);
    }
  }
  std::vector<double> via_router, via_direct;
  for (std::size_t r = 0; r < repeats; ++r) {
    const std::string& spec = specs[r % specs.size()];
    via_router.push_back(submit(router, router_reader, spec).first);
    via_direct.push_back(submit(worker, worker_reader, spec).first);
  }
  const Json after = fetch_metrics(router_addr);

  Json json = Json::make_object();
  json["attempted"] = std::uint64_t{attempted};
  json["incorrect"] = std::uint64_t{incorrect};
  Json failure_list = Json::make_array();
  for (const std::string& f : failures) {
    failure_list.push_back(f);
  }
  json["failures"] = std::move(failure_list);
  json["router_ms_p50"] = median(via_router);
  json["direct_ms_p50"] = median(via_direct);
  json["hop_ms_p50"] = median(via_router) - median(via_direct);
  json["residual_ms_p50"] = median(residual_ms);
  json["residual_samples"] = std::uint64_t{residual_ms.size()};
  json["metrics_before"] = before;
  json["metrics_after"] = after;
  std::cout << json.dump() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Cli cli(argc, argv);
    const std::string mode = cli.get_string(
        "mode", "", "host | prepare | load | inproc | probe | wireprobe");
    if (mode == "host") {
      cli.finish();
      return mode_host();
    }
    const Shape shape = shape_of(cli.get_string("workload", "", "workload name"));
    if (mode == "prepare") return mode_prepare(cli, shape);
    if (mode == "load") return mode_load(cli, shape);
    if (mode == "inproc") return mode_inproc(cli, shape);
    if (mode == "probe") return mode_probe(cli, shape);
    if (mode == "wireprobe") return mode_wireprobe(cli, shape);
    throw CheckFailure("unknown --mode \"" + mode + "\"");
  } catch (const std::exception& e) {
    std::cerr << "pqs_bench: " << e.what() << "\n";
    return 1;
  }
}
