#include "partial/grk.h"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/check.h"
#include "common/math.h"
#include "partial/optimizer.h"

namespace pqs::partial {
namespace {

class GrkShape : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {
};

TEST_P(GrkShape, SucceedsWithHighProbabilityAndCorrectMeter) {
  const auto [n, k] = GetParam();
  Rng rng(500 + 32 * n + k);
  const oracle::Database db =
      oracle::Database::with_qubits(n, pow2(n) / 3 + 1);
  const auto result = run_partial_search(db, k, rng, {});

  EXPECT_EQ(result.queries, result.l1 + result.l2 + 1);
  EXPECT_EQ(db.queries(), result.queries);
  EXPECT_GE(result.block_probability, default_min_success(db.size()));
  EXPECT_LT(result.queries, grover_optimal_iterations(db.size()));
}

TEST_P(GrkShape, DenseAgreesWithSubspaceModel) {
  const auto [n, k] = GetParam();
  const oracle::Database db = oracle::Database::with_qubits(n, 5);
  const std::uint64_t l1 = pow2(n / 2) / 2 + 1;
  const std::uint64_t l2 = pow2((n - k) / 2) / 2 + 1;

  const auto state = evolve_partial_search_on_backend(
      db, k, l1, l2, qsim::BackendKind::kDense);
  const SubspaceModel model(pow2(n), pow2(k));
  const auto modeled = model.run_grk(l1, l2);

  const qsim::Index target_block = db.target() >> (n - k);
  EXPECT_NEAR(state->block_probability(target_block),
              modeled.target_block_probability(), 1e-10);
  EXPECT_NEAR(state->probability(db.target()),
              modeled.target_state_probability(), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Shapes, GrkShape,
                         ::testing::Values(std::tuple{6u, 1u},
                                           std::tuple{6u, 2u},
                                           std::tuple{8u, 1u},
                                           std::tuple{8u, 3u},
                                           std::tuple{10u, 2u},
                                           std::tuple{10u, 4u},
                                           std::tuple{12u, 1u},
                                           std::tuple{12u, 5u}));

TEST(Grk, ExplicitIterationCountsAreHonored) {
  Rng rng(1);
  const oracle::Database db = oracle::Database::with_qubits(8, 77);
  GrkOptions options;
  options.l1 = 5;
  options.l2 = 3;
  const auto result = run_partial_search(db, 2, rng, options);
  EXPECT_EQ(result.l1, 5u);
  EXPECT_EQ(result.l2, 3u);
  EXPECT_EQ(result.queries, 9u);
}

TEST(Grk, SnapshotsCaptureThreeStages) {
  Rng rng(2);
  const oracle::Database db = oracle::Database::with_qubits(8, 100);
  GrkOptions options;
  options.capture_snapshots = true;
  const auto result = run_partial_search(db, 2, rng, options);
  EXPECT_EQ(result.snapshots.after_step1.size(), 256u);
  EXPECT_EQ(result.snapshots.after_step2.size(), 256u);
  EXPECT_EQ(result.snapshots.after_step3.size(), 256u);
}

TEST(Grk, Step2LeavesNonTargetBlocksUntouched) {
  // Figure 5's defining feature: between Step 1 and Step 2, amplitudes in
  // the non-target blocks do not move.
  Rng rng(3);
  const oracle::Database db = oracle::Database::with_qubits(10, 7);  // block 0
  GrkOptions options;
  options.capture_snapshots = true;
  const auto result = run_partial_search(db, 2, rng, options);
  const auto& s1 = result.snapshots.after_step1;
  const auto& s2 = result.snapshots.after_step2;
  for (std::size_t x = 256; x < 1024; ++x) {  // blocks 1..3 (target is in 0)
    ASSERT_LT(std::abs(s1[x] - s2[x]), 1e-12) << "x=" << x;
  }
}

TEST(Grk, Step2MakesTargetBlockRestNegative) {
  // Figure 5, second histogram: the non-target states of the target block
  // acquire negative amplitudes.
  Rng rng(4);
  const oracle::Database db = oracle::Database::with_qubits(10, 7);
  GrkOptions options;
  options.capture_snapshots = true;
  const auto result = run_partial_search(db, 2, rng, options);
  const auto& s2 = result.snapshots.after_step2;
  for (std::size_t x = 0; x < 256; ++x) {
    if (x == 7) {
      continue;
    }
    ASSERT_LT(s2[x].real(), 0.0) << "x=" << x;
  }
  EXPECT_GT(s2[7].real(), 0.0);
}

TEST(Grk, HalfAverageConditionApproximatelyHolds) {
  // Step 2 stops when the mean amplitude of all non-target states is half
  // the per-state amplitude of the non-target blocks. Use the
  // leakage-minimizing l2 (the paper's exact stopping point) rather than
  // the cheapest-above-floor choice, which deliberately stops early.
  Rng rng(5);
  const oracle::Database db = oracle::Database::with_qubits(12, 9);
  const SubspaceModel model(1 << 12, 8);
  const auto opt =
      optimize_integer(1 << 12, 8, default_min_success(1 << 12));
  std::uint64_t best_l2 = 0;
  double best_leak = 1.0;
  for (std::uint64_t l2 = 0; l2 < 100; ++l2) {
    const double leak =
        1.0 - model.run_grk(opt.l1, l2).target_block_probability();
    if (leak < best_leak) {
      best_leak = leak;
      best_l2 = l2;
    }
  }

  GrkOptions options;
  options.capture_snapshots = true;
  options.l1 = opt.l1;
  options.l2 = best_l2;
  const auto result = run_partial_search(db, 3, rng, options);
  const auto& s2 = result.snapshots.after_step2;

  qsim::Amplitude sum{0.0, 0.0};
  for (std::size_t x = 0; x < s2.size(); ++x) {
    if (x != 9) {
      sum += s2[x];
    }
  }
  const double mean = (sum / static_cast<double>(s2.size() - 1)).real();
  const double non_target_amp = s2[4095].real();  // deep in the last block
  // Integer rounding of l2 leaves an O(1/sqrt(N/K)) relative residual.
  EXPECT_NEAR(mean, non_target_amp / 2.0,
              std::fabs(non_target_amp) * 0.15 + 1e-12);
}

TEST(Grk, Step3ZeroesNonTargetBlocks) {
  Rng rng(6);
  const oracle::Database db = oracle::Database::with_qubits(10, 7);
  GrkOptions options;
  options.capture_snapshots = true;
  const auto result = run_partial_search(db, 2, rng, options);
  const auto& s3 = result.snapshots.after_step3;
  // Residual leakage per state is tiny (the success floor bounds the total).
  double leaked = 0.0;
  for (std::size_t x = 256; x < 1024; ++x) {
    leaked += std::norm(s3[x]);
  }
  EXPECT_LT(leaked, 1.0 - default_min_success(1024) + 1e-9);
}

TEST(Grk, PerturbingL2WorsensLeakage) {
  // The optimizer's l2 choice is a genuine optimum: moving one local
  // iteration in either direction strictly increases the non-target leakage.
  const std::uint64_t n_items = 1 << 14;
  const std::uint64_t k_blocks = 4;
  const SubspaceModel model(n_items, k_blocks);
  const auto opt =
      optimize_integer(n_items, k_blocks, default_min_success(n_items));

  const auto leakage = [&model](std::uint64_t l1, std::uint64_t l2) {
    return 1.0 - model.run_grk(l1, l2).target_block_probability();
  };
  // Find the best l2 for this fixed l1 (the optimizer picks the earliest l2
  // meeting the floor, not necessarily the leakage minimum).
  std::uint64_t best_l2 = 0;
  double best = 1.0;
  for (std::uint64_t l2 = 0; l2 < 200; ++l2) {
    const double leak = leakage(opt.l1, l2);
    if (leak < best) {
      best = leak;
      best_l2 = l2;
    }
  }
  ASSERT_GT(best_l2, 0u);
  EXPECT_GT(leakage(opt.l1, best_l2 - 1), best);
  EXPECT_GT(leakage(opt.l1, best_l2 + 1), best);
}

TEST(Grk, MeasuredBlocksFollowBlockDistribution) {
  Rng rng(7);
  const oracle::Database db = oracle::Database::with_qubits(8, 200);
  int correct = 0;
  constexpr int kTrials = 60;
  for (int t = 0; t < kTrials; ++t) {
    db.reset_queries();
    const auto result = run_partial_search(db, 2, rng, {});
    correct += result.correct ? 1 : 0;
  }
  // Success floor at N=256 is 1 - 4/16 = 0.75; allow generous sampling slack.
  EXPECT_GE(correct, kTrials / 2);
}

TEST(Grk, RejectsBadShapes) {
  Rng rng(8);
  const oracle::Database db12(12, 3);
  EXPECT_THROW(run_partial_search(db12, 1, rng, {}), CheckFailure);
  const oracle::Database db = oracle::Database::with_qubits(6, 3);
  EXPECT_THROW(run_partial_search(db, 0, rng, {}), CheckFailure);
  EXPECT_THROW(run_partial_search(db, 6, rng, {}), CheckFailure);
}

}  // namespace
}  // namespace pqs::partial
