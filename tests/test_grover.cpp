#include "grover/grover.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/math.h"

namespace pqs::grover {
namespace {

class GroverClosedForm : public ::testing::TestWithParam<unsigned> {};

TEST_P(GroverClosedForm, SimulationMatchesSinSquaredFormula) {
  const unsigned n = GetParam();
  const oracle::Database db = oracle::Database::with_qubits(n, pow2(n) / 3);
  const auto m_star = optimal_iterations(db.size());
  for (std::uint64_t m = 0; m <= m_star + 2; ++m) {
    db.reset_queries();
    const double simulated = success_probability_after(db, m);
    const double closed = grover_success_probability(db.size(), m);
    ASSERT_NEAR(simulated, closed, 1e-10) << "n=" << n << " m=" << m;
    ASSERT_EQ(db.queries(), m);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GroverClosedForm,
                         ::testing::Values(2u, 3u, 4u, 5u, 6u, 7u, 8u, 10u,
                                           12u));

TEST(Grover, OptimalIterationsNearQuarterPiSqrtN) {
  const auto m = optimal_iterations(1u << 16);
  EXPECT_NEAR(static_cast<double>(m), kQuarterPi * 256.0, 1.0);
}

TEST(Grover, HighSuccessAtOptimum) {
  for (unsigned n : {6u, 8u, 10u, 12u}) {
    const oracle::Database db = oracle::Database::with_qubits(n, 1);
    const double p =
        success_probability_after(db, optimal_iterations(db.size()));
    // Error is O(1/N) at the optimal count.
    EXPECT_GT(p, 1.0 - 4.0 / static_cast<double>(db.size())) << "n=" << n;
  }
}

TEST(Grover, SearchReturnsTargetWithHighProbability) {
  Rng rng(123);
  const oracle::Database db = oracle::Database::with_qubits(10, 777);
  int correct = 0;
  for (int trial = 0; trial < 50; ++trial) {
    db.reset_queries();
    const auto result = search(db, rng);
    EXPECT_EQ(result.queries, optimal_iterations(1024));
    correct += result.correct ? 1 : 0;
  }
  EXPECT_GE(correct, 48);  // p_fail ~ 1/N per trial
}

TEST(Grover, SearchWithZeroIterationsIsUniformGuess) {
  Rng rng(5);
  const oracle::Database db = oracle::Database::with_qubits(8, 0);
  const auto result = search_with_iterations(db, 0, rng);
  EXPECT_EQ(result.queries, 0u);
  EXPECT_NEAR(result.success_probability, 1.0 / 256.0, 1e-12);
}

TEST(Grover, AngleAfterAdvancesLinearly) {
  const std::uint64_t n_items = 1 << 12;
  const double theta = grover_angle(n_items);
  EXPECT_NEAR(angle_after(n_items, 0), theta, 1e-15);
  EXPECT_NEAR(angle_after(n_items, 10), 21.0 * theta, 1e-12);
}

TEST(Grover, DriftPastTargetObservedInSimulation) {
  // The paper's "curious feature" on the actual state vector: overshooting
  // reduces the target amplitude.
  const oracle::Database db = oracle::Database::with_qubits(10, 99);
  const auto m_star = optimal_iterations(db.size());
  const double at_opt = success_probability_after(db, m_star);
  db.reset_queries();
  const double past = success_probability_after(db, m_star + 6);
  EXPECT_LT(past, at_opt);
}

TEST(Grover, StatePopulatesOnlyTwoLevelsOfAmplitude) {
  // The state stays in span{|t>, uniform-over-rest}: all non-target
  // amplitudes remain equal throughout.
  const oracle::Database db = oracle::Database::with_qubits(8, 100);
  const auto state =
      evolve_on_backend(db, 7, qsim::BackendKind::kDense)->amplitudes_copy();
  const auto ref = state[0];
  for (qsim::Index x = 0; x < 256; ++x) {
    if (x == 100) {
      continue;
    }
    EXPECT_LT(std::abs(state[x] - ref), 1e-12);
  }
}

}  // namespace
}  // namespace pqs::grover
