// Who owns threads (qsim/parallel.h): the work threshold, the nested path,
// the per-thread budget, the BatchRunner team, and the Service's per-worker
// share — plus the contract all of it rests on: kernel outputs are
// byte-identical at any budget, on both sides of the threshold.
#include "qsim/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <set>
#include <vector>

#include "qsim/batch.h"
#include "qsim/gates.h"
#include "qsim/gates2.h"
#include "qsim/kernels.h"
#include "qsim/soa.h"
#include "reference_kernels.h"
#include "service/service.h"

namespace pqs {
namespace {

using qsim::kChunk;
using qsim::kParallelMinElems;

/// Restores the calling thread's budget and the threshold on scope exit.
struct ThreadingScope {
  ~ThreadingScope() {
    qsim::set_thread_budget(0);
    qsim::force_parallel_threshold(std::nullopt);
  }
};

bool same_bytes(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool same_bytes(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Every kernel output the thread count could perturb, for one n.
struct KernelOutputs {
  std::vector<double> re, im;  ///< state after a short GRK-shaped loop
  double norm = 0.0;
  qsim::Amplitude inner;
};

KernelOutputs run_kernels(unsigned n) {
  namespace kernels = qsim::kernels;
  qsim::SoaVector state = qsim::reference::uniform_state(n);
  // Complex, non-uniform phases.
  kernels::apply_gate1(state, n, 0, qsim::gates::T());
  kernels::apply_gate2(state, n, n - 1, 1,
                       qsim::gates::tensor(qsim::gates::H(),
                                           qsim::gates::S()));
  for (int i = 0; i < 3; ++i) {
    kernels::phase_flip_index(state, (qsim::Index{1} << n) / 3 + 1);
    kernels::reflect_about_uniform(state);
  }
  for (int i = 0; i < 2; ++i) {
    kernels::phase_flip_index(state, (qsim::Index{1} << n) / 3 + 1);
    kernels::reflect_blocks_about_uniform(state, state.size() >> 2);
  }
  qsim::SoaVector other = qsim::reference::uniform_state(n);
  kernels::phase_flip_index(other, 5);
  KernelOutputs out;
  out.re.assign(state.re_span().begin(), state.re_span().end());
  out.im.assign(state.im_span().begin(), state.im_span().end());
  out.norm = kernels::norm_squared(state);
  out.inner = kernels::inner_product(other, state);
  return out;
}

TEST(ParallelThreadsTest, BelowThresholdRunsOnTheCallingThread) {
  ThreadingScope scope;
  qsim::set_thread_budget(4);
  EXPECT_EQ(qsim::parallel_threads(0), 1u);
  EXPECT_EQ(qsim::parallel_threads(kChunk), 1u);
  EXPECT_EQ(qsim::parallel_threads(kParallelMinElems - 1), 1u);
}

TEST(ParallelThreadsTest, AboveThresholdUsesTheBudgetCappedByChunks) {
  ThreadingScope scope;
#ifdef PQS_HAVE_OPENMP
  qsim::set_thread_budget(4);
  EXPECT_EQ(qsim::parallel_threads(kParallelMinElems), 4u);
  EXPECT_EQ(qsim::parallel_threads(std::size_t{1} << 22), 4u);
  qsim::set_thread_budget(2);
  EXPECT_EQ(qsim::parallel_threads(std::size_t{1} << 22), 2u);
  // A team never outnumbers the chunks it splits.
  qsim::force_parallel_threshold(0);
  qsim::set_thread_budget(16);
  EXPECT_EQ(qsim::parallel_threads(3 * kChunk), 3u);
#else
  EXPECT_EQ(qsim::parallel_threads(std::size_t{1} << 22), 1u);
#endif
}

TEST(ParallelThreadsTest, BudgetOfOneIsSerial) {
  ThreadingScope scope;
  qsim::set_thread_budget(1);
  EXPECT_EQ(qsim::parallel_threads(std::size_t{1} << 22), 1u);
}

TEST(ParallelThreadsTest, DefaultBudgetIsEveryHardwareThread) {
  ThreadingScope scope;
  qsim::set_thread_budget(3);
  EXPECT_EQ(qsim::thread_budget(), 3u);
  qsim::set_thread_budget(0);
  EXPECT_EQ(qsim::thread_budget(), qsim::hardware_threads());
  EXPECT_GE(qsim::hardware_threads(), 1u);
}

TEST(ParallelThreadsTest, InsideAnActiveRegionKernelsRunSerially) {
  ThreadingScope scope;
  qsim::set_thread_budget(4);
  std::vector<unsigned> seen(2, 0);
  qsim::parallel_for(2, 2, [&](std::int64_t i) {
    seen[static_cast<std::size_t>(i)] =
        qsim::parallel_threads(std::size_t{1} << 22);
  });
  EXPECT_EQ(seen, (std::vector<unsigned>{1, 1}));
}

TEST(ParallelForTest, VisitsEveryIndexOnceAtAnyTeamSize) {
  for (const unsigned threads : {0u, 1u, 2u, 4u, 7u}) {
    std::vector<int> hits(1000, 0);
    qsim::parallel_for(1000, threads, [&](std::int64_t i) {
      ++hits[static_cast<std::size_t>(i)];
    });
    EXPECT_EQ(std::count(hits.begin(), hits.end(), 1), 1000)
        << "threads=" << threads;
  }
}

TEST(ThreadCountParityTest, KernelOutputsAreByteIdenticalAtBudgets124) {
  ThreadingScope scope;
  // n = 12..14 sit below the threshold and n = 15..18 above it. Lifting the
  // threshold makes the small states open real 2- and 4-thread teams too,
  // so every n is compared against a genuinely threaded run.
  qsim::force_parallel_threshold(0);
  for (unsigned n = 12; n <= 18; ++n) {
    qsim::set_thread_budget(1);
    const KernelOutputs serial = run_kernels(n);
    for (const unsigned budget : {2u, 4u}) {
      qsim::set_thread_budget(budget);
      const KernelOutputs threaded = run_kernels(n);
      const std::string where =
          "n=" + std::to_string(n) + " budget=" + std::to_string(budget);
      EXPECT_TRUE(same_bytes(serial.re, threaded.re)) << where;
      EXPECT_TRUE(same_bytes(serial.im, threaded.im)) << where;
      EXPECT_TRUE(same_bytes(serial.norm, threaded.norm)) << where;
      EXPECT_TRUE(same_bytes(serial.inner.real(), threaded.inner.real()))
          << where;
      EXPECT_TRUE(same_bytes(serial.inner.imag(), threaded.inner.imag()))
          << where;
    }
  }
}

TEST(BatchRunnerBudgetTest, DefaultTeamIsTheCallersBudget) {
  ThreadingScope scope;
  qsim::set_thread_budget(3);
  const qsim::BatchRunner runner;
#ifdef PQS_HAVE_OPENMP
  EXPECT_EQ(runner.threads(), 3u);
  EXPECT_EQ(qsim::BatchRunner({.threads = 2}).threads(), 2u);
#else
  EXPECT_EQ(runner.threads(), 1u);
#endif
}

TEST(BatchRunnerBudgetTest, KernelsInsideShotBodiesTakeTheNestedPath) {
  ThreadingScope scope;
  qsim::set_thread_budget(4);
  const qsim::BatchRunner runner({.threads = 4});
  std::atomic<unsigned> widest{0};
  const auto outcomes = runner.map_shots(8, [&](std::uint64_t, Rng&) {
    const unsigned threads = qsim::parallel_threads(std::size_t{1} << 22);
    unsigned prev = widest.load();
    while (threads > prev && !widest.compare_exchange_weak(prev, threads)) {
    }
    return qsim::Index{0};
  });
  EXPECT_EQ(outcomes.size(), 8u);
  EXPECT_EQ(widest.load(), 1u);
}

TEST(BatchRunnerBudgetTest, ASingleShotKeepsTheCallersBudgetForKernels) {
  ThreadingScope scope;
  qsim::set_thread_budget(4);
  const qsim::BatchRunner runner({.threads = 4});
  unsigned seen = 0;
  runner.map_shots(1, [&](std::uint64_t, Rng&) {
    seen = qsim::parallel_threads(std::size_t{1} << 22);
    return qsim::Index{0};
  });
#ifdef PQS_HAVE_OPENMP
  EXPECT_EQ(seen, 4u);  // min(threads, shots) = 1: no region was entered
#else
  EXPECT_EQ(seen, 1u);
#endif
}

/// Records the kernel budget of the worker thread that runs it.
class BudgetProbe final : public Algorithm {
 public:
  std::string_view name() const override { return "budget_probe"; }
  std::string_view summary() const override { return "budget probe"; }
  SearchReport run(RunContext& ctx) const override {
    SearchReport report;
    report.measured = ctx.marked.front();
    report.correct = true;
    report.queries = qsim::thread_budget();  // smuggled out for the test
    report.queries_per_trial = 1;
    report.success_probability = 1.0;
    return report;
  }
};

TEST(ServiceBudgetTest, WorkersSplitTheHardwareThreads) {
  const unsigned hw = qsim::hardware_threads();
  std::set<unsigned> pools{1u, 2u, hw, hw + 1};
  for (const unsigned workers : pools) {
    Registry registry = Registry::with_builtin_algorithms();
    registry.register_algorithm(
        "budget_probe", [] { return std::make_unique<BudgetProbe>(); });
    Service service({.threads = workers}, std::move(registry));
    std::vector<JobHandle> handles;
    for (std::uint64_t seed = 1; seed <= 2 * workers; ++seed) {
      SearchSpec spec = SearchSpec::single_target(64, 1, 9);
      spec.algorithm = "budget_probe";
      spec.seed = seed;  // distinct keys: no coalescing, no cache hits
      handles.push_back(service.submit(spec));
    }
    for (JobHandle& handle : handles) {
      handle.wait();
      ASSERT_EQ(handle.status(), JobStatus::kDone);
      const auto budget = static_cast<unsigned>(handle.report().queries);
      EXPECT_EQ(budget, std::max(1u, hw / workers)) << "workers=" << workers;
      if (workers <= hw) {
        EXPECT_LE(workers * budget, hw) << "workers=" << workers;
      }
    }
  }
}

}  // namespace
}  // namespace pqs
