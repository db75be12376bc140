// The network subsystem, pinned over REAL loopback TCP: shard hashing
// (golden FNV-1a values — the router's key-placement contract), explicit
// admission control (full Service queue, per-session inflight cap, and the
// acceptor's max-connections bound all answer with an immediate
// `overloaded` event, never silent latency), dropped-connection load
// shedding through RunControl, the extended `stats` op, and the
// byte-determinism of the result stream across worker counts — replaying
// tests/fixtures/serve_session.jsonl through a 1-thread and a 4-thread
// NetServer must produce identical bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/json.h"
#include "common/timing.h"
#include "net/server.h"
#include "net/session.h"
#include "net/shard.h"
#include "net/socket.h"
#include "service/service.h"

namespace pqs {
namespace {

using namespace std::chrono_literals;

// ---- test drivers ----------------------------------------------------------

std::atomic<int> g_running{0};
std::atomic<bool> g_gate{false};

SearchReport net_test_report(const RunContext& ctx) {
  SearchReport report;
  report.measured = ctx.marked.front();
  report.correct = true;
  report.queries = 1;
  report.queries_per_trial = 1;
  report.success_probability = 1.0;
  return report;
}

/// Spins at a cancellation checkpoint until the gate opens. The RAII guard
/// decrements `g_running` on BOTH exits — normal return and the
/// CancelledError unwind out of checkpoint() — so tests can observe "the
/// execution actually stopped", not just "the status changed".
class NetGatedAlgorithm final : public Algorithm {
 public:
  std::string_view name() const override { return "net-gated"; }
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
    return net_test_report(ctx);
  }
};

Registry net_test_registry() {
  Registry registry = Registry::with_builtin_algorithms();
  registry.register_algorithm(
      "net-gated", [] { return std::make_unique<NetGatedAlgorithm>(); });
  return registry;
}

void reset_driver_state() {
  g_running = 0;
  g_gate = false;
}

bool wait_until(const std::function<bool()>& condition,
                std::chrono::milliseconds timeout = 10s) {
  Stopwatch watch;
  while (watch.millis() < static_cast<double>(timeout.count())) {
    if (condition()) {
      return true;
    }
    std::this_thread::sleep_for(1ms);
  }
  return condition();
}

// ---- a tiny protocol client ------------------------------------------------

std::string submit_line(const std::string& id, std::uint64_t seed) {
  Json spec = Json::make_object();
  spec["algorithm"] = std::string("net-gated");
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

struct TestClient {
  net::Socket socket;
  net::LineReader reader;

  explicit TestClient(std::uint16_t port)
      : socket(net::connect_with_retry({"127.0.0.1", port}, 5000ms)),
        reader(socket) {}

  void send(const std::string& line) {
    ASSERT_TRUE(socket.write_all(line + "\n"));
  }

  /// Next event of any kind; fails the test on EOF.
  Json next_event() {
    std::string line;
    const bool got = reader.next_line(line);
    PQS_CHECK_MSG(got, "connection closed while expecting an event");
    return Json::parse(line);
  }

  /// Next ack (skipping interleaved async `result` events).
  Json next_ack() {
    while (true) {
      Json event = next_event();
      if (event.at("event").as_string() != "result") {
        return event;
      }
    }
  }

  /// Next `result` event (skipping acks).
  Json next_result() {
    while (true) {
      Json event = next_event();
      if (event.at("event").as_string() == "result") {
        return event;
      }
    }
  }
};

// ---- shard hashing ---------------------------------------------------------

TEST(ShardTest, Fnv1aGoldenValues) {
  // Reference values of the standard 64-bit FNV-1a parameters. If any of
  // these move, every deployed router would re-home its keys on upgrade and
  // cold the fleet's caches — treat a failure here as an ABI break.
  EXPECT_EQ(net::fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(net::fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(net::fnv1a("foobar"), 0x85944171f73967e8ULL);
  static_assert(net::fnv1a("pqs") == net::fnv1a("pqs"),
                "fnv1a must be constexpr");
}

TEST(ShardTest, ShardForKeyIsStableAndInRange) {
  const std::string key = "{\"algorithm\":\"grover\",\"n_items\":1024}";
  const std::size_t first = net::shard_for_key(key, 4);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(net::shard_for_key(key, 4), first);
  }
  for (std::size_t n = 1; n <= 16; ++n) {
    EXPECT_LT(net::shard_for_key(key, n), n);
  }
  EXPECT_EQ(net::shard_for_key(key, 1), 0u);
}

TEST(ShardTest, KeysSpreadAcrossWorkers) {
  std::vector<std::size_t> hits(4, 0);
  for (int k = 0; k < 1000; ++k) {
    ++hits[net::shard_for_key("key-" + std::to_string(k), 4)];
  }
  for (std::size_t w = 0; w < 4; ++w) {
    EXPECT_GT(hits[w], 150u) << "worker " << w;  // ~250 expected
  }
}

// ---- admission control -----------------------------------------------------

TEST(NetAdmissionTest, FullServiceQueueAnswersOverloadedImmediately) {
  reset_driver_state();
  Service service({.threads = 1, .queue_capacity = 1}, net_test_registry());
  net::NetServer server(service, {.listen = {"127.0.0.1", 0}});
  server.start();

  TestClient client(server.port());
  client.send(submit_line("a", 1));
  EXPECT_EQ(client.next_ack().at("event").as_string(), "accepted");
  // Wait until "a" occupies the worker, so "b" deterministically sits in
  // the queue (capacity 1) and "c" deterministically overflows it.
  ASSERT_TRUE(wait_until([] { return g_running.load() == 1; }));
  client.send(submit_line("b", 2));
  EXPECT_EQ(client.next_ack().at("event").as_string(), "accepted");
  client.send(submit_line("c", 3));
  const Json overloaded = client.next_ack();
  EXPECT_EQ(overloaded.at("event").as_string(), "overloaded");
  EXPECT_EQ(overloaded.at("id").as_string(), "c");
  EXPECT_NE(overloaded.at("reason").as_string().find("queue is full"),
            std::string::npos);

  g_gate = true;  // let a and b finish so the server drains cleanly
  EXPECT_EQ(client.next_result().at("id").as_string(), "a");
  EXPECT_EQ(client.next_result().at("id").as_string(), "b");
  server.stop();
}

TEST(NetAdmissionTest, InflightCapAnswersOverloadedImmediately) {
  reset_driver_state();
  Service service({.threads = 1}, net_test_registry());
  net::NetServer server(
      service, {.listen = {"127.0.0.1", 0}, .session = {.inflight_limit = 1}});
  server.start();

  TestClient client(server.port());
  client.send(submit_line("a", 1));
  EXPECT_EQ(client.next_ack().at("event").as_string(), "accepted");
  client.send(submit_line("b", 2));
  const Json overloaded = client.next_ack();
  EXPECT_EQ(overloaded.at("event").as_string(), "overloaded");
  EXPECT_EQ(overloaded.at("id").as_string(), "b");
  EXPECT_NE(overloaded.at("reason").as_string().find("inflight cap"),
            std::string::npos);

  g_gate = true;
  EXPECT_EQ(client.next_result().at("id").as_string(), "a");
  // With "a" answered the cap frees up: the same connection may submit again.
  client.send(submit_line("c", 3));
  EXPECT_EQ(client.next_ack().at("event").as_string(), "accepted");
  EXPECT_EQ(client.next_result().at("id").as_string(), "c");
  server.stop();
}

TEST(NetAdmissionTest, OverCapSubmitIsRefusedBeforeSpecParsing) {
  reset_driver_state();
  Service service({.threads = 1}, net_test_registry());
  net::NetServer server(
      service, {.listen = {"127.0.0.1", 0}, .session = {.inflight_limit = 1}});
  server.start();

  TestClient client(server.port());
  client.send(submit_line("a", 1));
  EXPECT_EQ(client.next_ack().at("event").as_string(), "accepted");
  // A peer at its cap is refused before its spec is even looked at: the
  // same line that would be a spec error below the cap (no "spec" field)
  // answers `overloaded` here — the cap is why it was refused, and an
  // over-cap peer cannot force per-line spec validation.
  client.send(R"({"op":"submit","id":"b"})");
  const Json overloaded = client.next_ack();
  EXPECT_EQ(overloaded.at("event").as_string(), "overloaded");
  EXPECT_EQ(overloaded.at("id").as_string(), "b");
  EXPECT_NE(overloaded.at("reason").as_string().find("inflight cap"),
            std::string::npos);

  g_gate = true;
  EXPECT_EQ(client.next_result().at("id").as_string(), "a");
  // Below the cap the missing spec IS an error — admission first changes
  // only what an over-cap submit costs and answers.
  client.send(R"({"op":"submit","id":"c"})");
  EXPECT_EQ(client.next_ack().at("event").as_string(), "error");
  server.stop();
}

TEST(NetAdmissionTest, MaxConnectionsRejectsTheExtraConnection) {
  reset_driver_state();
  Service service({.threads = 1}, net_test_registry());
  net::NetServer server(
      service, {.listen = {"127.0.0.1", 0}, .max_connections = 1});
  server.start();

  TestClient first(server.port());
  // A full round-trip proves `first` is admitted and its session is live
  // (not just sitting in the kernel accept backlog).
  first.send(R"({"op":"stats","id":"s"})");
  EXPECT_EQ(first.next_ack().at("event").as_string(), "stats");

  TestClient second(server.port());
  const Json overloaded = second.next_event();
  EXPECT_EQ(overloaded.at("event").as_string(), "overloaded");
  EXPECT_NE(overloaded.at("reason").as_string().find("max connections"),
            std::string::npos);
  std::string line;
  EXPECT_FALSE(second.reader.next_line(line));  // and then the door closes
  server.stop();
}

// ---- dropped-connection load shedding --------------------------------------

TEST(NetAbortTest, DroppedConnectionCancelsItsInflightJobs) {
  reset_driver_state();
  Service service({.threads = 2}, net_test_registry());
  net::NetServer server(service, {.listen = {"127.0.0.1", 0}});
  server.start();

  {
    TestClient client(server.port());
    client.send(submit_line("doomed", 1));
    EXPECT_EQ(client.next_ack().at("event").as_string(), "accepted");
    ASSERT_TRUE(wait_until([] { return g_running.load() == 1; }));
    // Client vanishes here WITHOUT reading its result: ~TestClient closes
    // the socket. The gate never opens — only RunControl cancellation can
    // stop the execution.
  }
  ASSERT_TRUE(wait_until([] { return g_running.load() == 0; }));
  ASSERT_TRUE(wait_until([&] {
    return service.metrics().counter("service.cancelled").value() == 1;
  }));
  EXPECT_EQ(service.metrics().counter("service.done").value(), 0u);
  ASSERT_TRUE(wait_until([&] { return server.live_connections() == 0; }));
  server.stop();
}

// ---- the extended stats op -------------------------------------------------

TEST(NetStatsTest, StatsEventCarriesCountersCachesAndLatency) {
  reset_driver_state();
  Service service({.threads = 1}, net_test_registry());
  net::NetServer server(service, {.listen = {"127.0.0.1", 0}});
  server.start();

  TestClient client(server.port());
  // x1 runs (gate closed); the identical x2 arrives WHILE it runs, so it
  // coalesces onto x1's execution — distinct from the x3 cache hit below.
  client.send(submit_line("x1", 5));
  EXPECT_EQ(client.next_ack().at("event").as_string(), "accepted");
  ASSERT_TRUE(wait_until([] { return g_running.load() == 1; }));
  client.send(submit_line("x2", 5));
  EXPECT_EQ(client.next_ack().at("event").as_string(), "accepted");
  g_gate = true;
  EXPECT_EQ(client.next_result().at("id").as_string(), "x1");
  EXPECT_EQ(client.next_result().at("id").as_string(), "x2");
  client.send(submit_line("x3", 5));  // same spec, after done: result LRU
  EXPECT_EQ(client.next_result().at("id").as_string(), "x3");

  client.send(R"({"op":"stats","id":"s"})");
  const Json stats = client.next_ack();
  EXPECT_EQ(stats.at("event").as_string(), "stats");
  EXPECT_EQ(stats.at("id").as_string(), "s");
  EXPECT_EQ(stats.at("workers").as_uint(), 1u);
  EXPECT_EQ(stats.at("queue_depth").as_uint(), 0u);

  const Json& counters = stats.at("counters");
  EXPECT_EQ(counters.at("submitted").as_uint(), 3u);
  EXPECT_EQ(counters.at("coalesced_submits").as_uint(), 1u);  // x2
  EXPECT_EQ(counters.at("cache_hits").as_uint(), 1u);         // x3
  EXPECT_EQ(counters.at("executed").as_uint(), 1u);
  EXPECT_EQ(counters.at("done").as_uint(), 1u);
  EXPECT_EQ(counters.at("rejected").as_uint(), 0u);
  EXPECT_NEAR(stats.at("coalescing_hit_rate").as_double(), 1.0 / 3.0, 1e-9);

  EXPECT_TRUE(stats.at("plan_cache").has("hits"));
  EXPECT_TRUE(stats.at("plan_cache").has("evictions"));
  EXPECT_EQ(stats.at("result_cache").at("hits").as_uint(), 1u);
  EXPECT_EQ(stats.at("result_cache").at("size").as_uint(), 1u);

  // One finished execution -> every stage histogram holds one sample.
  for (const char* stage : {"queue", "plan", "exec"}) {
    EXPECT_EQ(stats.at("latency_ns").at(stage).at("count").as_uint(), 1u)
        << stage;
  }
  server.stop();
}

/// The `stats` event with its machine- and timing-dependent parts masked:
/// `isa`, and every latency histogram body down to its sample count.
std::string masked_stats_dump(Json stats) {
  stats["isa"] = std::string("<masked>");
  for (auto& [stage, histogram] : stats["latency_ns"].as_object()) {
    Json count_only = Json::make_object();
    count_only["count"] = histogram.at("count").as_uint();
    histogram = std::move(count_only);
  }
  return stats.dump();
}

TEST(NetStatsTest, StatsEventWireBytesMatchFixture) {
  // Every field name, every nesting level and every counter of the `stats`
  // event after a fixed script — submit, finish, resubmit for a result-cache
  // hit — compared byte-for-byte against a recorded dump.
  ServiceOptions options;
  options.threads = 1;
  Service service(options);
  std::mutex mutex;
  std::vector<Json> events;
  net::Session session(service, [&](const std::string& line) {
    std::lock_guard lock(mutex);
    events.push_back(Json::parse(line));
    return true;
  });
  const auto results = [&] {
    std::lock_guard lock(mutex);
    return std::count_if(events.begin(), events.end(), [](const Json& e) {
      return e.at("event").as_string() == "result";
    });
  };
  const std::string spec =
      R"("spec":{"algorithm":"grk","n_items":4096,"n_blocks":4,)"
      R"("marked":[2731],"seed":7})";
  session.handle_line(R"({"op":"submit","id":"a",)" + spec + "}");
  ASSERT_TRUE(wait_until([&] { return results() == 1; }));
  session.handle_line(R"({"op":"submit","id":"b",)" + spec + "}");
  ASSERT_TRUE(wait_until([&] { return results() == 2; }));
  session.handle_line(R"({"op":"stats","id":"s"})");
  session.drain();

  std::ifstream fixture(std::string(PQS_SOURCE_DIR) +
                        "/tests/fixtures/stats_event.json");
  ASSERT_TRUE(fixture.good()) << "fixture missing";
  std::string expected;
  std::getline(fixture, expected);
  std::lock_guard lock(mutex);
  ASSERT_EQ(events.back().at("event").as_string(), "stats");
  EXPECT_EQ(masked_stats_dump(events.back()), expected);
}

// ---- byte-determinism across worker counts ---------------------------------

std::vector<std::string> replay_fixture_over_tcp(unsigned threads) {
  Service service({.threads = threads}, Registry::with_builtin_algorithms());
  net::NetServer server(service, {.listen = {"127.0.0.1", 0}});
  server.start();

  std::ifstream fixture(std::string(PQS_SOURCE_DIR) +
                        "/tests/fixtures/serve_session.jsonl");
  PQS_CHECK_MSG(fixture.good(), "fixture missing");
  TestClient client(server.port());
  std::size_t requests = 0;
  std::string line;
  while (std::getline(fixture, line)) {
    if (line.empty()) {
      continue;
    }
    client.send(line);
    ++requests;
  }
  // One synchronous ack per request; one result per accepted submit.
  std::size_t acks = 0;
  std::size_t accepted = 0;
  std::vector<std::string> results;
  while (acks < requests || results.size() < accepted) {
    const Json event = client.next_event();
    const std::string& kind = event.at("event").as_string();
    if (kind == "result") {
      results.push_back(event.dump());
    } else {
      accepted += kind == "accepted" ? 1 : 0;
      ++acks;
    }
  }
  server.stop();
  return results;
}

TEST(NetDeterminismTest, ResultStreamIsByteIdenticalAcrossWorkerCounts) {
  const std::vector<std::string> one = replay_fixture_over_tcp(1);
  const std::vector<std::string> four = replay_fixture_over_tcp(4);
  ASSERT_EQ(one.size(), 7u);  // 8 requests, 1 invalid spec
  EXPECT_EQ(one, four);
  // Submission order, not completion order.
  EXPECT_NE(one[0].find("\"id\":\"grk-1\""), std::string::npos);
  EXPECT_NE(one[5].find("\"id\":\"exact-1\""), std::string::npos);
  // The dense multi-shot block request: 500 shots from one sampler.
  EXPECT_NE(one[6].find("\"id\":\"grk-shots-1\""), std::string::npos);
  EXPECT_NE(one[6].find("over 500 shots"), std::string::npos);
}

// ---- wire plumbing ---------------------------------------------------------

TEST(NetWireTest, ParseHostportRoundTrips) {
  const net::Addr addr = net::parse_hostport("127.0.0.1:7401");
  EXPECT_EQ(addr.host, "127.0.0.1");
  EXPECT_EQ(addr.port, 7401);
  EXPECT_EQ(addr.to_string(), "127.0.0.1:7401");
  EXPECT_EQ(net::parse_hostport("[::1]:80").host, "::1");
  EXPECT_THROW(net::parse_hostport("no-port"), CheckFailure);
  EXPECT_THROW(net::parse_hostport("host:99999"), CheckFailure);
}

TEST(NetWireTest, StatsNeedsNoIdButSubmitDoes) {
  reset_driver_state();
  Service service({.threads = 1}, net_test_registry());
  net::NetServer server(service, {.listen = {"127.0.0.1", 0}});
  server.start();
  TestClient client(server.port());
  // stats is connection-level: no id needed, and none invented in the reply.
  client.send(R"({"op":"stats"})");
  const Json stats = client.next_ack();
  EXPECT_EQ(stats.at("event").as_string(), "stats");
  EXPECT_FALSE(stats.has("id"));
  // submit addresses a job: a missing id is a loud error ack, not a CHECK
  // message about JSON internals.
  client.send(R"({"op":"submit","spec":{}})");
  const Json error = client.next_ack();
  EXPECT_EQ(error.at("event").as_string(), "error");
  EXPECT_NE(error.at("message").as_string().find("requires a non-empty"),
            std::string::npos);
  server.stop();
}

TEST(NetWireTest, UnknownIdCancelAndTraceUseTheSharedWording) {
  reset_driver_state();
  Service service({.threads = 1}, net_test_registry());
  net::NetServer server(service, {.listen = {"127.0.0.1", 0}});
  server.start();
  TestClient client(server.port());
  // pqs_router answers these two from the same helpers, so a worker's ack
  // must be exactly the helper's: no PQS_CHECK prefix.
  client.send(R"({"op":"cancel","id":"ghost"})");
  EXPECT_EQ(client.next_ack().dump(),
            net::unknown_cancel_event("ghost").dump());
  client.send(R"({"op":"trace","id":"ghost"})");
  EXPECT_EQ(client.next_ack().dump(),
            net::unknown_trace_event("ghost").dump());
  EXPECT_EQ(net::unknown_cancel_event("ghost").at("message").as_string(),
            "unknown or already-finished job id \"ghost\"");
  server.stop();
}

TEST(NetWireTest, CarriageReturnsAreStripped) {
  reset_driver_state();
  Service service({.threads = 1}, net_test_registry());
  net::NetServer server(service, {.listen = {"127.0.0.1", 0}});
  server.start();
  TestClient client(server.port());
  // An \r\n-framed client (telnet/nc on some platforms) still parses.
  ASSERT_TRUE(client.socket.write_all("{\"op\":\"stats\",\"id\":\"s\"}\r\n"));
  EXPECT_EQ(client.next_ack().at("event").as_string(), "stats");
  server.stop();
}

}  // namespace
}  // namespace pqs
