// pqs::obs tracing: span timelines end to end through the Service (submit
// -> queue -> engine -> plan -> shots -> finish), TraceStore minting, the
// fake-clock-driven slow-request counter and callback (no sleeping — the
// reason the raw-clock lint rule exists), coalesced handles sharing one
// trace id, disabled tracing reducing to the bare null-check path, the
// `trace` wire op through a real net::Session, and the --trace-ring /
// --slow-ms flags.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/json.h"
#include "common/timing.h"
#include "net/session.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/flags.h"
#include "service/service.h"

namespace pqs {
namespace {

using namespace std::chrono_literals;

/// RAII fake clock: installed for the test body, removed on every exit.
struct FakeClock {
  explicit FakeClock(std::uint64_t now_ns) {
    obs::set_fake_clock_ns_for_testing(now_ns);
  }
  ~FakeClock() { obs::set_fake_clock_ns_for_testing(std::nullopt); }
  void advance_to(std::uint64_t now_ns) {
    obs::set_fake_clock_ns_for_testing(now_ns);
  }
};

// ---- Trace -----------------------------------------------------------------

TEST(TraceTest, SpansRecordNamesAndFakeClockTimes) {
  FakeClock clock(1000);
  obs::Trace trace(7);
  trace.span("submit");
  clock.advance_to(1500);
  trace.span("finish.done");

  const auto events = trace.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "submit");
  EXPECT_EQ(events[0].t_ns, 1000u);
  EXPECT_EQ(events[1].t_ns, 1500u);
  EXPECT_EQ(trace.total_ns(), 500u);
}

TEST(TraceTest, JsonTimesAreRelativeToTheFirstSpan) {
  // Two processes tracing the same work at different absolute clock
  // readings must serialize identically — the wire timeline starts at 0.
  FakeClock clock(123456789);
  obs::Trace trace(1);
  trace.span("submit");
  clock.advance_to(123456789 + 250);
  trace.span("finish.done");

  const Json json = trace.to_json();
  EXPECT_EQ(json.at("trace_id").as_uint(), 1u);
  EXPECT_EQ(json.at("total_ns").as_uint(), 250u);
  const auto& spans = json.at("spans").as_array();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].at("t_ns").as_uint(), 0u);
  EXPECT_EQ(spans[1].at("t_ns").as_uint(), 250u);
  EXPECT_EQ(spans[0].at("name").as_string(), "submit");
}

// ---- TraceStore ------------------------------------------------------------

TEST(TraceStoreTest, MintsSequentialIds) {
  obs::TraceStore store;
  ASSERT_TRUE(store.enabled());
  auto first = store.mint();
  auto second = store.mint();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->id(), 1u);
  EXPECT_EQ(second->id(), 2u);
}

TEST(TraceStoreTest, DisabledStoreMintsNothing) {
  obs::TraceStore store({.enabled = false});
  EXPECT_FALSE(store.enabled());
  EXPECT_EQ(store.mint(), nullptr);
}

TEST(TraceStoreTest, SlowRequestsAreCountedAndCalledBack) {
  FakeClock clock(0);
  obs::MetricsRegistry registry;
  obs::TraceStore store({.slow_request_ns = 1000000});
  std::vector<std::uint64_t> callback_ids;
  store.set_slow_sink(&registry, [&callback_ids](const obs::Trace& trace) {
    callback_ids.push_back(trace.id());
  });

  const auto traced_request = [&](std::uint64_t duration_ns) {
    auto trace = store.mint();
    clock.advance_to(duration_ns);
    trace->span("submit");
    clock.advance_to(duration_ns * 2);
    trace->span("finish.done");
    store.retire(*trace);
    return trace->id();
  };
  traced_request(1000);                                // 1us: not slow
  const std::uint64_t slow = traced_request(2000000);  // 2ms: slow

  EXPECT_EQ(registry.counter("trace.slow_requests").value(), 1u);
  ASSERT_EQ(callback_ids.size(), 1u);
  EXPECT_EQ(callback_ids[0], slow);
}

// ---- the Service end to end ------------------------------------------------

std::atomic<bool> g_gate{false};
std::atomic<int> g_running{0};

/// Spins at a cancellation checkpoint until the gate opens — pins the
/// single worker so the next submits coalesce / stay queued
/// DETERMINISTICALLY instead of racing a microsecond grover run.
class TraceGatedAlgorithm final : public Algorithm {
 public:
  std::string_view name() const override { return "trace-gated"; }
  std::string_view summary() const override { return "test driver"; }
  SearchReport run(RunContext& ctx) const override {
    g_running.fetch_add(1);
    struct Guard {
      ~Guard() { g_running.fetch_sub(1); }
    } guard;
    while (!g_gate.load()) {
      ctx.checkpoint();  // a cancelled job unwinds from HERE
      std::this_thread::sleep_for(1ms);
    }
    SearchReport report;
    report.measured = ctx.marked.front();
    report.correct = true;
    report.queries = 1;
    report.queries_per_trial = 1;
    report.success_probability = 1.0;
    return report;
  }
};

Registry trace_test_registry() {
  Registry registry = Registry::with_builtin_algorithms();
  registry.register_algorithm(
      "trace-gated", [] { return std::make_unique<TraceGatedAlgorithm>(); });
  return registry;
}

void reset_gate() {
  g_gate = false;
  g_running = 0;
}

bool wait_until(const std::function<bool()>& condition) {
  Stopwatch watch;
  while (watch.millis() < 10000) {
    if (condition()) {
      return true;
    }
    std::this_thread::sleep_for(1ms);
  }
  return condition();
}

SearchSpec gated_spec(std::uint64_t seed) {
  SearchSpec spec = SearchSpec::single_target(64, 1, 9);
  spec.algorithm = "trace-gated";
  spec.seed = seed;
  return spec;
}

/// A grk spec with shots: the one adapter path that crosses EVERY traced
/// layer — planner (plan.* spans) and the BatchRunner fan-out (shots.*).
SearchSpec trace_test_spec(std::uint64_t seed) {
  SearchSpec spec = SearchSpec::single_target(4096, 4, 2731);
  spec.algorithm = "grk";
  spec.shots = 32;
  spec.seed = seed;
  return spec;
}

std::vector<std::string> span_names(const obs::Trace& trace) {
  std::vector<std::string> names;
  for (const auto& event : trace.events()) {
    names.emplace_back(event.name);
  }
  return names;
}

TEST(TraceServiceTest, CompletedJobHasTheFullSpanTimeline) {
  Service service({.threads = 1});
  JobHandle handle = service.submit(trace_test_spec(1));
  ASSERT_EQ(handle.wait(), JobStatus::kDone);

  auto trace = handle.trace();
  ASSERT_NE(trace, nullptr);
  const auto names = span_names(*trace);
  // The request crossed every layer: service -> engine -> planner -> shots.
  const std::vector<std::string> expected = {
      "submit",      "queue.enqueued", "exec.begin", "engine.run.begin",
      "plan.computed", "shots.begin",  "shots.end",  "engine.run.end",
      "finish.done"};
  EXPECT_EQ(names, expected);
}

TEST(TraceServiceTest, SlowJobsReachTheCounterAndTheCallback) {
  // Every span of this job reads the same fake time except the terminal
  // one, which the worker records after the clock jumps 5 ms: the job
  // retires slow. The clock moves only while the worker is pinned in the
  // gated driver, so no other span can read the later time.
  reset_gate();
  FakeClock clock(1000);
  Service service({.threads = 1, .trace = {.slow_request_ns = 1000000}},
                  trace_test_registry());
  std::vector<std::uint64_t> slow_ids;
  Mutex slow_mutex;
  service.trace_store().set_slow_sink(
      &service.metrics(), [&](const obs::Trace& trace) {
        LockGuard lock(slow_mutex);
        slow_ids.push_back(trace.id());
      });
  JobHandle slow = service.submit(gated_spec(3));
  ASSERT_TRUE(wait_until([] { return g_running.load() == 1; }));
  clock.advance_to(1000 + 5000000);
  g_gate = true;
  ASSERT_EQ(slow.wait(), JobStatus::kDone);
  ASSERT_NE(slow.trace(), nullptr);
  EXPECT_EQ(service.metrics().counter("trace.slow_requests").value(), 1u);
  LockGuard lock(slow_mutex);
  ASSERT_EQ(slow_ids.size(), 1u);
  EXPECT_EQ(slow_ids[0], slow.trace()->id());
}

TEST(TraceServiceTest, PlanCacheHitShowsInTheSecondTimeline) {
  Service service({.threads = 1, .result_cache_capacity = 1});
  ASSERT_EQ(service.submit(trace_test_spec(1)).wait(), JobStatus::kDone);
  // A different seed misses the result cache but reuses the plan.
  JobHandle second = service.submit(trace_test_spec(2));
  ASSERT_EQ(second.wait(), JobStatus::kDone);
  const auto names = span_names(*second.trace());
  EXPECT_NE(std::find(names.begin(), names.end(), "plan.cache_hit"),
            names.end());
}

TEST(TraceServiceTest, ResultCacheHitIsUntraced) {
  Service service({.threads = 1});
  ASSERT_EQ(service.submit(trace_test_spec(1)).wait(), JobStatus::kDone);
  JobHandle repeat = service.submit(trace_test_spec(1));
  ASSERT_EQ(repeat.wait(), JobStatus::kDone);
  // Served from the result LRU: nothing executed, nothing traced.
  EXPECT_EQ(repeat.trace(), nullptr);
}

TEST(TraceServiceTest, CoalescedHandlesShareOneTraceId) {
  // Pin the single worker so the twin submit coalesces onto the queued
  // first instead of hitting the result cache.
  reset_gate();
  Service service({.threads = 1}, trace_test_registry());
  JobHandle blocker = service.submit(gated_spec(99));
  ASSERT_TRUE(wait_until([] { return g_running.load() == 1; }));
  JobHandle first = service.submit(trace_test_spec(5));
  JobHandle twin = service.submit(trace_test_spec(5));
  g_gate = true;
  ASSERT_EQ(first.wait(), JobStatus::kDone);
  ASSERT_EQ(twin.wait(), JobStatus::kDone);
  ASSERT_EQ(blocker.wait(), JobStatus::kDone);
  EXPECT_NE(first.trace(), nullptr);
  EXPECT_EQ(first.trace(), twin.trace());
}

TEST(TraceServiceTest, DisabledTracingMintsNoTrace) {
  Service service({.threads = 1, .trace = {.enabled = false}});
  JobHandle handle = service.submit(trace_test_spec(1));
  ASSERT_EQ(handle.wait(), JobStatus::kDone);
  EXPECT_EQ(handle.trace(), nullptr);
  EXPECT_FALSE(service.trace_store().enabled());
}

TEST(TraceServiceTest, CancelledJobRetiresWithACancelSpan) {
  reset_gate();
  Service service({.threads = 1}, trace_test_registry());
  JobHandle blocker = service.submit(gated_spec(1));
  ASSERT_TRUE(wait_until([] { return g_running.load() == 1; }));
  JobHandle queued = service.submit(trace_test_spec(2));
  queued.cancel();  // cancelled while still queued — it never starts
  g_gate = true;
  ASSERT_EQ(blocker.wait(), JobStatus::kDone);
  ASSERT_EQ(queued.wait(), JobStatus::kCancelled);
  auto trace = queued.trace();
  ASSERT_NE(trace, nullptr);
  const auto names = span_names(*trace);
  EXPECT_EQ(names.back(), "finish.cancelled");
}

// ---- the `trace` wire op through a real Session ----------------------------

std::string wire_submit(const std::string& id, std::uint64_t seed) {
  Json spec = Json::make_object();
  spec["algorithm"] = std::string("grover");
  spec["n_items"] = std::uint64_t{64};
  spec["n_blocks"] = std::uint64_t{1};
  Json marked = Json::make_array();
  marked.push_back(std::uint64_t{9});
  spec["marked"] = std::move(marked);
  spec["seed"] = seed;
  Json request = Json::make_object();
  request["op"] = std::string("submit");
  request["id"] = id;
  request["spec"] = std::move(spec);
  return request.dump();
}

TEST(TraceWireTest, TraceOpReturnsTheTimelineAfterTheResult) {
  Service service({.threads = 1});
  std::vector<std::string> lines;
  Mutex lines_mutex;
  net::Session session(service, [&](std::string_view batch) {
    LockGuard lock(lines_mutex);
    for (std::string& line : net::split_lines(batch)) {
      lines.push_back(std::move(line));
    }
    return true;
  });
  session.handle_line(wire_submit("job-1", 3));
  session.drain();  // result announced; the trace op arrives AFTER it

  session.handle_line(R"({"op":"trace","id":"job-1"})");
  Json trace_event;
  {
    LockGuard lock(lines_mutex);
    trace_event = Json::parse(lines.back());
  }
  EXPECT_EQ(trace_event.at("event").as_string(), "trace");
  EXPECT_EQ(trace_event.at("id").as_string(), "job-1");
  const Json& trace = trace_event.at("trace");
  EXPECT_GT(trace.at("trace_id").as_uint(), 0u);
  EXPECT_GE(trace.at("spans").as_array().size(), 5u);

  // Unknown ids answer with an error event, not a dropped line.
  session.handle_line(R"({"op":"trace","id":"never-submitted"})");
  {
    LockGuard lock(lines_mutex);
    trace_event = Json::parse(lines.back());
  }
  EXPECT_EQ(trace_event.at("event").as_string(), "error");
  EXPECT_NE(trace_event.at("message").as_string().find("no trace"),
            std::string::npos);
}

TEST(TraceWireTest, MetricsOpDumpsTheRegistrySnapshot) {
  Service service({.threads = 1});
  std::vector<std::string> lines;
  Mutex lines_mutex;
  net::Session session(service, [&](std::string_view batch) {
    LockGuard lock(lines_mutex);
    for (std::string& line : net::split_lines(batch)) {
      lines.push_back(std::move(line));
    }
    return true;
  });
  session.handle_line(wire_submit("m-1", 4));
  session.drain();

  session.handle_line(R"({"op":"metrics","id":"m"})");
  Json event;
  {
    LockGuard lock(lines_mutex);
    event = Json::parse(lines.back());
  }
  EXPECT_EQ(event.at("event").as_string(), "metrics");
  EXPECT_EQ(event.at("id").as_string(), "m");
  const Json& metrics = event.at("metrics");
  EXPECT_EQ(metrics.at("counters").at("service.submitted").as_uint(), 1u);
  EXPECT_TRUE(metrics.has("gauges"));
  EXPECT_TRUE(metrics.has("histograms"));
}

// ---- flags -----------------------------------------------------------------

TEST(TraceFlagsTest, TraceRingAndSlowMsMapOntoTraceStoreOptions) {
  const std::vector<const char*> args = {"pqs_serve", "--trace-ring=17",
                                         "--slow-ms=250"};
  Cli cli(static_cast<int>(args.size()), args.data());
  const ServiceOptions options = service::parse_service_flags(cli);
  EXPECT_TRUE(options.trace.enabled);  // any nonzero value means on
  EXPECT_EQ(options.trace.slow_request_ns, 250u * 1000000u);
}

TEST(TraceFlagsTest, TraceRingZeroDisablesAndNegativesAreRejected) {
  {
    const std::vector<const char*> args = {"pqs_serve", "--trace-ring=0"};
    Cli cli(static_cast<int>(args.size()), args.data());
    EXPECT_FALSE(service::parse_service_flags(cli).trace.enabled);
  }
  {
    const std::vector<const char*> args = {"pqs_serve", "--slow-ms=-1"};
    Cli cli(static_cast<int>(args.size()), args.data());
    EXPECT_THROW((void)service::parse_service_flags(cli), CheckFailure);
  }
}

}  // namespace
}  // namespace pqs
