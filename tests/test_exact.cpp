#include "grover/exact.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/math.h"

namespace pqs::grover {
namespace {

class ExactGrover : public ::testing::TestWithParam<unsigned> {};

TEST_P(ExactGrover, ReachesTargetWithProbabilityOne) {
  const unsigned n = GetParam();
  const oracle::Database db =
      oracle::Database::with_qubits(n, pow2(n) - 1);
  const auto state = evolve_exact_on_backend(db, qsim::BackendKind::kDense);
  EXPECT_NEAR(state->probability(db.target()), 1.0, 1e-9) << "n=" << n;
}

TEST_P(ExactGrover, QueryCountWithinOneOfPlainOptimum) {
  const unsigned n = GetParam();
  const std::uint64_t n_items = pow2(n);
  const auto exact = exact_query_count(n_items);
  const auto plain = grover_optimal_iterations(n_items);
  EXPECT_LE(exact, plain + 1) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, ExactGrover,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u,
                                           10u, 12u, 14u));

TEST(ExactGrover, ScheduleStopsShortOfTarget) {
  for (unsigned n = 2; n <= 14; ++n) {
    const std::uint64_t n_items = pow2(n);
    const auto sched = exact_schedule(n_items);
    const double theta = grover_angle(n_items);
    // (2m+1) theta <= pi/2 must hold (never overshoot)...
    EXPECT_LE((2.0 * static_cast<double>(sched.plain_iterations) + 1.0) *
                  theta,
              kHalfPi + 1e-12)
        << "n=" << n;
    // ...and m must be maximal.
    EXPECT_GT((2.0 * static_cast<double>(sched.plain_iterations + 1) + 1.0) *
                  theta,
              kHalfPi - 1e-12)
        << "n=" << n;
  }
}

TEST(ExactGrover, N4NeedsNoFinalStep) {
  // N = 4: theta = pi/6, one plain iteration lands exactly on the target.
  const auto sched = exact_schedule(4);
  EXPECT_EQ(sched.plain_iterations, 1u);
  EXPECT_FALSE(sched.final_step_needed);
  EXPECT_EQ(exact_query_count(4), 1u);
}

TEST(ExactGrover, DatabaseMetersMatchSchedule) {
  const oracle::Database db = oracle::Database::with_qubits(9, 17);
  evolve_exact_on_backend(db, qsim::BackendKind::kDense);
  EXPECT_EQ(db.queries(), exact_query_count(512));
}

TEST(ExactGrover, SearchExactAlwaysCorrect) {
  Rng rng(99);
  for (unsigned n : {3u, 5u, 8u, 11u}) {
    const oracle::Database db = oracle::Database::with_qubits(n, pow2(n) / 2);
    for (int trial = 0; trial < 10; ++trial) {
      const auto result = search_exact(db, rng);
      ASSERT_TRUE(result.correct) << "n=" << n;
      ASSERT_NEAR(result.success_probability, 1.0, 1e-9);
    }
  }
}

TEST(ExactGrover, TwelveItemFullSearchNeedsThreeQueries) {
  // Paper, Section 1.3: "to find the target with certainty, we would need at
  // least three (quantum) queries" in a twelve-item list. Our sure-success
  // construction on N = 12 (not a power of two, so computed from the
  // schedule math alone) uses exactly 3.
  EXPECT_EQ(exact_query_count(12), 3u);
}

}  // namespace
}  // namespace pqs::grover
