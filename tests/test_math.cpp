#include "common/math.h"

#include <gtest/gtest.h>

#include <cmath>

namespace pqs {
namespace {

TEST(Pow2, SmallValues) {
  EXPECT_EQ(pow2(0), 1u);
  EXPECT_EQ(pow2(1), 2u);
  EXPECT_EQ(pow2(10), 1024u);
  EXPECT_EQ(pow2(63), std::uint64_t{1} << 63);
}

TEST(Pow2, RejectsOverflow) { EXPECT_THROW(pow2(64), CheckFailure); }

TEST(Log2Exact, RoundTripsWithPow2) {
  for (unsigned e = 0; e < 64; ++e) {
    EXPECT_EQ(log2_exact(pow2(e)), e);
  }
}

TEST(Log2Exact, RejectsNonPowers) {
  EXPECT_THROW(log2_exact(0), CheckFailure);
  EXPECT_THROW(log2_exact(3), CheckFailure);
  EXPECT_THROW(log2_exact(12), CheckFailure);
}

TEST(IsPow2, Classification) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_FALSE(is_pow2(6));
  EXPECT_TRUE(is_pow2(std::uint64_t{1} << 40));
}

TEST(ClampedAsin, InRangePassesThrough) {
  EXPECT_DOUBLE_EQ(clamped_asin(0.0), 0.0);
  EXPECT_DOUBLE_EQ(clamped_asin(1.0), kHalfPi);
  EXPECT_DOUBLE_EQ(clamped_asin(-1.0), -kHalfPi);
}

TEST(ClampedAsin, AbsorbsRoundoff) {
  EXPECT_DOUBLE_EQ(clamped_asin(1.0 + 1e-12), kHalfPi);
  EXPECT_DOUBLE_EQ(clamped_asin(-1.0 - 1e-12), -kHalfPi);
}

TEST(ClampedAsin, RejectsRealViolations) {
  EXPECT_THROW(clamped_asin(1.5), CheckFailure);
  EXPECT_THROW(clamped_asin(-2.0), CheckFailure);
}

TEST(ClampedAcos, Basics) {
  EXPECT_DOUBLE_EQ(clamped_acos(1.0), 0.0);
  EXPECT_DOUBLE_EQ(clamped_acos(-1.0 - 1e-13), kPi);
  EXPECT_THROW(clamped_acos(2.0), CheckFailure);
}

TEST(ClampedSqrt, Basics) {
  EXPECT_DOUBLE_EQ(clamped_sqrt(4.0), 2.0);
  EXPECT_DOUBLE_EQ(clamped_sqrt(-1e-12), 0.0);
  EXPECT_THROW(clamped_sqrt(-1.0), CheckFailure);
}

TEST(GroverAngle, UniqueTarget) {
  // sin(theta) = 1/sqrt(N).
  EXPECT_NEAR(grover_angle(4), std::asin(0.5), 1e-15);
  EXPECT_NEAR(grover_angle(1 << 20), 1.0 / std::sqrt(1 << 20), 1e-6);
}

TEST(GroverAngle, MultipleTargets) {
  EXPECT_NEAR(grover_angle(100, 25), std::asin(0.5), 1e-15);
}

TEST(GroverSuccess, ClosedFormValues) {
  // N=4: theta = pi/6; one iteration gives sin^2(3 pi/6) = 1 (exact).
  EXPECT_NEAR(grover_success_probability(4, 1), 1.0, 1e-12);
  // Zero iterations: sin^2(theta) = 1/N.
  EXPECT_NEAR(grover_success_probability(1024, 0), 1.0 / 1024.0, 1e-15);
}

TEST(GroverOptimalIterations, MatchesQuarterPiSqrtN) {
  for (unsigned n = 4; n <= 24; n += 2) {
    const std::uint64_t n_items = pow2(n);
    const double expected = kQuarterPi * std::sqrt(static_cast<double>(n_items));
    const auto m = grover_optimal_iterations(n_items);
    EXPECT_NEAR(static_cast<double>(m), expected, 1.0)
        << "n_items = " << n_items;
  }
}

TEST(GroverOptimalIterations, IsActuallyOptimalForSmallN) {
  for (std::uint64_t n_items : {4u, 8u, 16u, 64u, 256u, 1024u}) {
    const auto m_star = grover_optimal_iterations(n_items);
    const double p_star = grover_success_probability(n_items, m_star);
    for (std::uint64_t m = 0; m <= m_star + 3; ++m) {
      EXPECT_LE(grover_success_probability(n_items, m), p_star + 1e-12)
          << "N=" << n_items << " m=" << m;
    }
  }
}

TEST(GroverSuccess, DriftPastOptimumReducesProbability) {
  // The paper's "curious feature": extra iterations move the state away.
  const std::uint64_t n_items = 4096;
  const auto m_star = grover_optimal_iterations(n_items);
  EXPECT_LT(grover_success_probability(n_items, m_star + 8),
            grover_success_probability(n_items, m_star));
}

}  // namespace
}  // namespace pqs
