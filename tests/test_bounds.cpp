#include "partial/bounds.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/check.h"
#include "common/math.h"

namespace pqs::partial {
namespace {

TEST(Bounds, LowerBoundMatchesPaperTable) {
  // Section 3.1 table, "Lower bound" column.
  EXPECT_NEAR(lower_bound_coefficient(2), 0.230, 5e-4);
  EXPECT_NEAR(lower_bound_coefficient(3), 0.332, 5e-4);
  EXPECT_NEAR(lower_bound_coefficient(4), 0.393, 5e-4);
  EXPECT_NEAR(lower_bound_coefficient(5), 0.434, 5e-4);
  EXPECT_NEAR(lower_bound_coefficient(8), 0.508, 5e-4);
  EXPECT_NEAR(lower_bound_coefficient(32), 0.647, 5e-4);
}

TEST(Bounds, LowerBoundApproachesFullSearchAsKGrows) {
  double prev = 0.0;
  for (std::uint64_t k = 2; k <= 1u << 20; k *= 4) {
    const double lb = lower_bound_coefficient(k);
    EXPECT_GT(lb, prev);
    EXPECT_LT(lb, kQuarterPi);
    prev = lb;
  }
  EXPECT_NEAR(lower_bound_coefficient(1u << 20), kQuarterPi, 1e-3);
}

TEST(Bounds, NaiveBlockDiscardMatchesSection12) {
  // (pi/4) sqrt((K-1)/K) ~ (pi/4)(1 - 1/(2K)).
  EXPECT_NEAR(naive_block_discard_coefficient(2),
              kQuarterPi * std::sqrt(0.5), 1e-12);
  for (std::uint64_t k : {8u, 64u, 1024u}) {
    const double kd = static_cast<double>(k);
    EXPECT_NEAR(naive_block_discard_coefficient(k),
                kQuarterPi * (1.0 - 1.0 / (2.0 * kd)),
                kQuarterPi / (kd * kd));
  }
}

TEST(Bounds, OrderingLowerNaiveFull) {
  // For every K: lower bound < naive < pi/4.
  for (std::uint64_t k = 5; k <= 1u << 16; k *= 2) {
    const double lb = lower_bound_coefficient(k);
    const double naive = naive_block_discard_coefficient(k);
    EXPECT_LT(lb, naive) << "K=" << k;
    EXPECT_LT(naive, kQuarterPi) << "K=" << k;
  }
}

TEST(Bounds, ClassicalFullExpected) {
  EXPECT_DOUBLE_EQ(classical_full_expected(1), 1.0);
  EXPECT_DOUBLE_EQ(classical_full_expected(99), 50.0);
  // Paper's leading form N/2 for large N.
  EXPECT_NEAR(classical_full_expected(1u << 20) /
                  (static_cast<double>(1u << 20) / 2.0),
              1.0, 1e-5);
}

TEST(Bounds, ClassicalPartialDeterministic) {
  EXPECT_EQ(classical_partial_deterministic(12, 3), 8u);
  EXPECT_EQ(classical_partial_deterministic(1024, 4), 768u);
}

TEST(Bounds, ClassicalPartialRandomizedPaperForm) {
  // N/2 (1 - 1/K^2).
  EXPECT_NEAR(classical_partial_randomized_paper(1000, 2), 375.0, 1e-9);
  EXPECT_NEAR(classical_partial_randomized_paper(1024, 4),
              512.0 * (1.0 - 1.0 / 16.0), 1e-9);
}

TEST(Bounds, ClassicalPartialExactFormSlightlyAbovePaperForm) {
  for (std::uint64_t k : {2u, 4u, 8u}) {
    const double paper = classical_partial_randomized_paper(4096, k);
    const double exact = classical_partial_randomized_exact(4096, k);
    EXPECT_GT(exact, paper) << "K=" << k;
    EXPECT_LT(exact - paper, 0.5) << "K=" << k;
  }
}

TEST(Bounds, ClassicalPartialSavingsVanishQuadratically) {
  // Savings over full search = N/2 * 1/K^2: the motivation of Section 1.1.
  const std::uint64_t n = 1 << 16;
  for (std::uint64_t k : {2u, 4u, 8u, 16u}) {
    const double savings = static_cast<double>(n) / 2.0 -
                           classical_partial_randomized_paper(n, k);
    EXPECT_NEAR(savings,
                static_cast<double>(n) / 2.0 /
                    (static_cast<double>(k) * static_cast<double>(k)),
                1e-9)
        << "K=" << k;
  }
}

TEST(Bounds, QuantumBeatsClassicalAtScale) {
  // The whole point: (pi/4) sqrt(N)-scale vs N-scale.
  const std::uint64_t n = 1 << 20;
  const double quantum =
      lower_bound_coefficient(4) * std::sqrt(static_cast<double>(n));
  EXPECT_LT(quantum, classical_partial_randomized_paper(n, 4) / 100.0);
}

}  // namespace
}  // namespace pqs::partial
