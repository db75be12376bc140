// pqs::Service: the job lifecycle, REAL coalescing (N identical concurrent
// submits -> exactly one driver execution, counted by a test adapter), REAL
// cancellation (a cancelled handle never reports kDone; a running million-
// trial sweep stops in a fraction of its runtime), the bounded priority
// queue, and the result cache.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/timing.h"
#include "service/service.h"

namespace pqs {
namespace {

using namespace std::chrono_literals;

/// Shared observation state of the test drivers, reset per test.
struct DriverState {
  std::atomic<std::uint64_t> executions{0};
  std::atomic<int> running{0};
  std::atomic<bool> gate_open{false};
  std::mutex order_mutex;
  std::vector<std::uint64_t> order;  ///< spec seeds in execution order

  void reset() {
    executions = 0;
    running = 0;
    gate_open = false;
    std::lock_guard lock(order_mutex);
    order.clear();
  }
};

DriverState& state() {
  static DriverState s;
  return s;
}

void record_execution(const RunContext& ctx) {
  state().executions.fetch_add(1);
  std::lock_guard lock(state().order_mutex);
  state().order.push_back(ctx.spec.seed);
}

SearchReport test_report(const RunContext& ctx) {
  SearchReport report;
  report.measured = ctx.marked.front();
  report.correct = true;
  report.queries = 1;
  report.queries_per_trial = 1;
  report.success_probability = 1.0;
  return report;
}

/// "counting": returns instantly, counts executions.
class CountingAlgorithm final : public Algorithm {
 public:
  std::string_view name() const override { return "counting"; }
  std::string_view summary() const override { return "test driver"; }
  SearchReport run(RunContext& ctx) const override {
    ctx.checkpoint();
    record_execution(ctx);
    return test_report(ctx);
  }
};

/// "gated": spins at a cancellation checkpoint until the test opens the
/// gate — a controllable long-running job.
class GatedAlgorithm final : public Algorithm {
 public:
  std::string_view name() const override { return "gated"; }
  std::string_view summary() const override { return "test driver"; }
  SearchReport run(RunContext& ctx) const override {
    record_execution(ctx);
    state().running.fetch_add(1);
    while (!state().gate_open.load()) {
      ctx.checkpoint();  // a cancelled job leaves HERE, mid-run
      std::this_thread::sleep_for(1ms);
    }
    state().running.fetch_sub(1);
    return test_report(ctx);
  }
};

Registry test_registry() {
  Registry registry = Registry::with_builtin_algorithms();
  registry.register_algorithm(
      "counting", [] { return std::make_unique<CountingAlgorithm>(); });
  registry.register_algorithm(
      "gated", [] { return std::make_unique<GatedAlgorithm>(); });
  return registry;
}

SearchSpec test_spec(const std::string& algorithm, std::uint64_t seed) {
  SearchSpec spec = SearchSpec::single_target(64, 1, 9);
  spec.algorithm = algorithm;
  spec.seed = seed;
  return spec;
}

/// Poll until `condition` holds (deadlines keep a deadlock from hanging CI).
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

TEST(ServiceCoalescingTest, SixtyFourConcurrentIdenticalSubmitsRunOnce) {
  state().reset();
  Service service({.threads = 4}, test_registry());
  const SearchSpec spec = test_spec("gated", 7);

  constexpr int kCallers = 64;
  std::vector<JobHandle> handles;
  handles.reserve(kCallers);
  std::mutex handles_mutex;
  {
    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (int c = 0; c < kCallers; ++c) {
      callers.emplace_back([&] {
        JobHandle handle = service.submit(spec);
        std::lock_guard lock(handles_mutex);
        handles.push_back(std::move(handle));
      });
    }
    for (auto& caller : callers) {
      caller.join();
    }
  }
  ASSERT_EQ(handles.size(), kCallers);
  // Everyone is attached to ONE gated execution; let it finish.
  ASSERT_TRUE(wait_until([] { return state().running.load() == 1; }));
  state().gate_open = true;

  for (auto& handle : handles) {
    ASSERT_EQ(handle.wait(), JobStatus::kDone);
  }
  // The acceptance criterion: 64 identical reports, ONE driver execution.
  EXPECT_EQ(state().executions.load(), 1u);
  const SearchReport& first = handles.front().report();
  for (auto& handle : handles) {
    const SearchReport& report = handle.report();
    EXPECT_EQ(report.measured, first.measured);
    EXPECT_EQ(report.correct, first.correct);
    EXPECT_EQ(report.queries, first.queries);
    EXPECT_EQ(report.detail, first.detail);
  }
  const auto counter = [&](const std::string& name) {
    return service.metrics().counter("service." + name).value();
  };
  EXPECT_EQ(counter("submitted"), 64u);
  EXPECT_EQ(counter("coalesced_submits") + counter("cache_hits"), 63u);
  EXPECT_EQ(counter("executed"), 1u);
  EXPECT_EQ(counter("done"), 1u);
}

TEST(ServiceCancelTest, CancelledRunningJobNeverFlipsToDone) {
  state().reset();
  Service service({.threads = 1}, test_registry());
  JobHandle handle = service.submit(test_spec("gated", 1));
  ASSERT_TRUE(wait_until([] { return state().running.load() == 1; }));

  handle.cancel();
  EXPECT_EQ(handle.wait(), JobStatus::kCancelled);  // without opening the gate
  // The terminal state is sticky: even after the gate opens, a cancelled
  // job must never read kDone.
  state().gate_open = true;
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(handle.status(), JobStatus::kCancelled);
  EXPECT_THROW((void)handle.report(), CheckFailure);
  EXPECT_EQ(service.metrics().counter("service.cancelled").value(), 1u);
  EXPECT_EQ(service.metrics().counter("service.done").value(), 0u);
}

TEST(ServiceCancelTest, CancelWhileQueuedNeverExecutes) {
  state().reset();
  Service service({.threads = 1}, test_registry());
  JobHandle blocker = service.submit(test_spec("gated", 1));
  ASSERT_TRUE(wait_until([] { return state().running.load() == 1; }));
  JobHandle queued = service.submit(test_spec("counting", 2));

  queued.cancel();
  EXPECT_EQ(queued.status(), JobStatus::kCancelled);  // immediately

  state().gate_open = true;
  EXPECT_EQ(blocker.wait(), JobStatus::kDone);
  EXPECT_EQ(queued.wait(), JobStatus::kCancelled);
  // The counting driver never ran: only the gated seed is in the log.
  std::lock_guard lock(state().order_mutex);
  EXPECT_EQ(state().order, std::vector<std::uint64_t>{1});
}

TEST(ServiceCancelTest, CoalescedCancelDetachesOnlyThatCaller) {
  state().reset();
  Service service({.threads = 1}, test_registry());
  const SearchSpec spec = test_spec("gated", 5);
  JobHandle first = service.submit(spec);
  JobHandle second = service.submit(spec);
  EXPECT_EQ(service.metrics().counter("service.coalesced_submits").value(),
            1u);
  ASSERT_TRUE(wait_until([] { return state().running.load() == 1; }));

  first.cancel();
  EXPECT_EQ(first.status(), JobStatus::kCancelled);
  // The other caller is still attached, so the execution keeps going...
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(second.status(), JobStatus::kRunning);
  // ...and completes for them.
  state().gate_open = true;
  EXPECT_EQ(second.wait(), JobStatus::kDone);
  EXPECT_EQ(first.status(), JobStatus::kCancelled);
  EXPECT_EQ(state().executions.load(), 1u);
}

TEST(ServiceCancelTest, ResubmitAfterFullCancelGetsAFreshExecution) {
  state().reset();
  Service service({.threads = 1}, test_registry());
  const SearchSpec spec = test_spec("gated", 5);
  JobHandle doomed = service.submit(spec);
  ASSERT_TRUE(wait_until([] { return state().running.load() == 1; }));
  doomed.cancel();  // last attachment out: this execution is doomed

  // An innocent caller submitting the same spec before the doomed job
  // settles must NOT be attached to it — they never cancelled anything
  // and expect a result.
  JobHandle fresh = service.submit(spec);
  state().gate_open = true;
  EXPECT_EQ(fresh.wait(), JobStatus::kDone);
  EXPECT_EQ(doomed.wait(), JobStatus::kCancelled);
  EXPECT_EQ(state().executions.load(), 2u);
}

TEST(ServiceQueueTest, PriorityRunsFirstFifoWithin) {
  state().reset();
  Service service({.threads = 1}, test_registry());
  JobHandle blocker = service.submit(test_spec("gated", 100));
  ASSERT_TRUE(wait_until([] { return state().running.load() == 1; }));

  JobHandle low_a = service.submit(test_spec("counting", 1), /*priority=*/0);
  JobHandle low_b = service.submit(test_spec("counting", 2), /*priority=*/0);
  JobHandle high = service.submit(test_spec("counting", 3), /*priority=*/5);
  EXPECT_EQ(service.queue_depth(), 3u);

  state().gate_open = true;
  EXPECT_EQ(blocker.wait(), JobStatus::kDone);
  EXPECT_EQ(low_a.wait(), JobStatus::kDone);
  EXPECT_EQ(low_b.wait(), JobStatus::kDone);
  EXPECT_EQ(high.wait(), JobStatus::kDone);

  std::lock_guard lock(state().order_mutex);
  EXPECT_EQ(state().order, (std::vector<std::uint64_t>{100, 3, 1, 2}));
}

TEST(ServiceQueueTest, CoalescedSubmitPromotesTheQueuedJobsPriority) {
  state().reset();
  Service service({.threads = 1}, test_registry());
  JobHandle blocker = service.submit(test_spec("gated", 100));
  ASSERT_TRUE(wait_until([] { return state().running.load() == 1; }));

  JobHandle lazy = service.submit(test_spec("counting", 1), /*priority=*/0);
  JobHandle other = service.submit(test_spec("counting", 2), /*priority=*/5);
  // An urgent caller coalesces onto the lazy job: it must overtake `other`.
  JobHandle urgent = service.submit(test_spec("counting", 1), /*priority=*/9);

  state().gate_open = true;
  EXPECT_EQ(blocker.wait(), JobStatus::kDone);
  EXPECT_EQ(lazy.wait(), JobStatus::kDone);
  EXPECT_EQ(other.wait(), JobStatus::kDone);
  EXPECT_EQ(urgent.wait(), JobStatus::kDone);

  std::lock_guard lock(state().order_mutex);
  EXPECT_EQ(state().order, (std::vector<std::uint64_t>{100, 1, 2}));
}

TEST(ServiceQueueTest, BoundedQueueRejectsOverload) {
  state().reset();
  Service service({.threads = 1, .queue_capacity = 2}, test_registry());
  JobHandle blocker = service.submit(test_spec("gated", 100));
  ASSERT_TRUE(wait_until([] { return state().running.load() == 1; }));

  JobHandle a = service.submit(test_spec("counting", 1));
  JobHandle b = service.submit(test_spec("counting", 2));
  EXPECT_THROW((void)service.submit(test_spec("counting", 3)), CheckFailure);

  state().gate_open = true;
  EXPECT_EQ(blocker.wait(), JobStatus::kDone);
  EXPECT_EQ(a.wait(), JobStatus::kDone);
  EXPECT_EQ(b.wait(), JobStatus::kDone);
}

TEST(ServiceQueueTest, CancellingQueuedJobsFreesTheirQueueSlots) {
  state().reset();
  Service service({.threads = 1, .queue_capacity = 2}, test_registry());
  JobHandle blocker = service.submit(test_spec("gated", 100));
  ASSERT_TRUE(wait_until([] { return state().running.load() == 1; }));
  JobHandle a = service.submit(test_spec("counting", 1));
  JobHandle b = service.submit(test_spec("counting", 2));

  // Full queue; cancelling a waiter must shed its load so a new submit fits.
  a.cancel();
  JobHandle c = service.submit(test_spec("counting", 3));

  state().gate_open = true;
  EXPECT_EQ(blocker.wait(), JobStatus::kDone);
  EXPECT_EQ(a.wait(), JobStatus::kCancelled);
  EXPECT_EQ(b.wait(), JobStatus::kDone);
  EXPECT_EQ(c.wait(), JobStatus::kDone);
  std::lock_guard lock(state().order_mutex);
  EXPECT_EQ(state().order, (std::vector<std::uint64_t>{100, 2, 3}));
}

TEST(ServiceCacheTest, CompletedSpecIsServedFromTheResultCache) {
  state().reset();
  Service service({.threads = 2}, test_registry());
  const SearchSpec spec = test_spec("counting", 11);

  JobHandle first = service.submit(spec);
  ASSERT_EQ(first.wait(), JobStatus::kDone);
  JobHandle repeat = service.submit(spec);
  EXPECT_EQ(repeat.status(), JobStatus::kDone);  // no queue round trip
  EXPECT_EQ(repeat.report().measured, first.report().measured);

  EXPECT_EQ(state().executions.load(), 1u);
  EXPECT_EQ(service.metrics().counter("service.cache_hits").value(), 1u);
  EXPECT_EQ(repeat.progress(), 1.0);
}

TEST(ServiceTimingTest, QueueDelayIsReportedSeparately) {
  state().reset();
  Service service({.threads = 1}, test_registry());
  JobHandle blocker = service.submit(test_spec("gated", 100));
  ASSERT_TRUE(wait_until([] { return state().running.load() == 1; }));
  JobHandle waiting = service.submit(test_spec("counting", 1));
  std::this_thread::sleep_for(20ms);  // guarantee measurable queueing
  state().gate_open = true;

  ASSERT_EQ(waiting.wait(), JobStatus::kDone);
  // The satellite's point: queueing delay is visible, not folded into the
  // execution number.
  EXPECT_GE(waiting.report().queue_ns, 10'000'000u);  // >= 10 ms queued
  EXPECT_LT(blocker.report().queue_ns, waiting.report().queue_ns);
}

TEST(ServiceRealDriverTest, MillionTrialNoisySweepCancelsQuickly) {
  Service service({.threads = 1});  // built-in registry, real drivers
  SearchSpec spec = SearchSpec::single_target(1u << 16, 4, 12345);
  spec.algorithm = "noisy";
  spec.backend = qsim::BackendKind::kSymmetry;
  spec.noise.kind = qsim::NoiseKind::kDepolarizing;
  spec.noise.probability = 1e-4;
  spec.shots = 4'000'000;  // tens of core-seconds if run to completion
  spec.l1 = 201;           // pin the schedule: no planning in the way
  spec.l2 = 100;

  Stopwatch watch;
  JobHandle handle = service.submit(spec);
  ASSERT_TRUE(wait_until(
      [&] { return handle.status() == JobStatus::kRunning; }));
  std::this_thread::sleep_for(30ms);  // let trials actually start
  handle.cancel();
  EXPECT_EQ(handle.wait(), JobStatus::kCancelled);
  // "Well under the job's full runtime": seconds, not minutes.
  EXPECT_LT(watch.seconds(), 30.0);
  const double progress = handle.progress();
  EXPECT_GE(progress, 0.0);
  EXPECT_LT(progress, 1.0);
}

TEST(ServiceEngineTest, EngineRunThrowsCancelledErrorDirectly) {
  const Engine engine;
  qsim::RunControl control;
  control.cancel();
  SearchSpec spec = SearchSpec::single_target(1u << 10, 1, 3);
  spec.algorithm = "grover";
  EXPECT_THROW((void)engine.run(spec, &control), qsim::CancelledError);
}

TEST(ServiceFailureTest, AdapterErrorsSurfaceAsFailedWithMessage) {
  Service service({.threads = 1});
  // Passes spec validation but violates the adapter's K >= 3 requirement.
  SearchSpec spec = SearchSpec::single_target(64, 2, 3);
  spec.algorithm = "twelve";
  JobHandle handle = service.submit(spec);
  EXPECT_EQ(handle.wait(), JobStatus::kFailed);
  EXPECT_FALSE(handle.error().empty());
  EXPECT_THROW((void)handle.report(), CheckFailure);
  EXPECT_EQ(service.metrics().counter("service.failed").value(), 1u);
}

TEST(ServiceShutdownTest, DestructorCancelsOutstandingJobs) {
  state().reset();
  std::vector<JobHandle> handles;
  {
    Service service({.threads = 1}, test_registry());
    handles.push_back(service.submit(test_spec("gated", 1)));
    ASSERT_TRUE(wait_until([] { return state().running.load() == 1; }));
    handles.push_back(service.submit(test_spec("counting", 2)));
    // ~Service: cancels the running gate and the queued counting job.
  }
  EXPECT_EQ(handles[0].status(), JobStatus::kCancelled);
  EXPECT_EQ(handles[1].status(), JobStatus::kCancelled);
}

}  // namespace
}  // namespace pqs
