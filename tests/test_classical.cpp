#include "classical/search.h"

#include <gtest/gtest.h>

#include "classical/montecarlo.h"
#include "common/check.h"
#include "partial/bounds.h"

namespace pqs::classical {
namespace {

TEST(ClassicalFull, DeterministicFindsEveryTarget) {
  for (std::uint64_t t = 0; t < 20; ++t) {
    const oracle::Database db(20, t);
    const auto result = full_search_deterministic(db);
    ASSERT_TRUE(result.correct);
    ASSERT_EQ(result.answer, t);
    // Probes: t+1 except the last cell, which is inferred for free.
    ASSERT_EQ(result.probes, t == 19 ? 19u : t + 1);
  }
}

TEST(ClassicalFull, RandomizedIsZeroError) {
  Rng rng(1);
  const auto stats = measure_full_randomized(128, 500, rng);
  EXPECT_EQ(stats.failures, 0u);
}

TEST(ClassicalFull, RandomizedExpectationMatchesClosedForm) {
  Rng rng(2);
  const std::uint64_t n = 256;
  const auto stats = measure_full_randomized(n, 4000, rng);
  const double expected = partial::classical_full_expected(n);
  EXPECT_NEAR(stats.probes.mean(), expected,
              3.0 * stats.probes.ci95_halfwidth() + 1.0);
}

TEST(ClassicalPartial, DeterministicWorstCaseIsNMinusBlock) {
  // Target in the last (unprobed) block: exactly N(1 - 1/K) probes.
  const oracle::Database db(24, 23);
  const oracle::BlockLayout layout(24, 4);
  const auto result = partial_search_deterministic(db, layout);
  EXPECT_TRUE(result.correct);
  EXPECT_EQ(result.answer, 3u);
  EXPECT_EQ(result.probes,
            partial::classical_partial_deterministic(24, 4));
}

TEST(ClassicalPartial, DeterministicEarlyHitStopsProbing) {
  const oracle::Database db(24, 2);
  const oracle::BlockLayout layout(24, 4);
  const auto result = partial_search_deterministic(db, layout);
  EXPECT_TRUE(result.correct);
  EXPECT_EQ(result.probes, 3u);
}

TEST(ClassicalPartial, DeterministicIsZeroError) {
  Rng rng(3);
  const auto stats = measure_partial_deterministic(64, 4, 1000, rng);
  EXPECT_EQ(stats.failures, 0u);
}

TEST(ClassicalPartial, RandomizedIsZeroError) {
  Rng rng(4);
  const auto stats = measure_partial_randomized(64, 4, 2000, rng);
  EXPECT_EQ(stats.failures, 0u);
}

TEST(ClassicalPartial, RandomizedExpectationMatchesAppendixA) {
  // The centerpiece of Appendix A: E[probes] = N/2 (1 - 1/K^2) + O(1).
  Rng rng(5);
  for (const std::uint64_t k : {2u, 3u, 4u, 8u}) {
    const std::uint64_t n = 240;  // divisible by 2, 3, 4, 8
    const auto stats = measure_partial_randomized(n, k, 6000, rng);
    const double expected = partial::classical_partial_randomized_exact(n, k);
    EXPECT_NEAR(stats.probes.mean(), expected,
                3.0 * stats.probes.ci95_halfwidth() + 1.0)
        << "K=" << k;
  }
}

TEST(ClassicalPartial, RandomizedBeatsFullSearch) {
  Rng rng(6);
  const std::uint64_t n = 240;
  const auto partial_stats = measure_partial_randomized(n, 4, 4000, rng);
  const auto full_stats = measure_full_randomized(n, 4000, rng);
  EXPECT_LT(partial_stats.probes.mean(), full_stats.probes.mean());
}

TEST(ClassicalPartial, SavingsShrinkWithK) {
  // Appendix A: the advantage over N/2 decays like 1/K^2.
  Rng rng(7);
  const std::uint64_t n = 240;
  const auto k2 = measure_partial_randomized(n, 2, 6000, rng);
  const auto k8 = measure_partial_randomized(n, 8, 6000, rng);
  const double full = static_cast<double>(n) / 2.0;
  EXPECT_GT(full - k2.probes.mean(), 4.0 * (full - k8.probes.mean()) * 0.8);
}

TEST(ClassicalPartial, WorstCaseNeverExceedsDeterministicBound) {
  Rng rng(8);
  const oracle::BlockLayout layout(60, 3);
  for (int trial = 0; trial < 300; ++trial) {
    const oracle::Database db(60, rng.uniform_below(60));
    const auto result = partial_search_randomized(db, layout, rng);
    ASSERT_LE(result.probes,
              partial::classical_partial_deterministic(60, 3));
    ASSERT_TRUE(result.correct);
  }
}

TEST(ClassicalPartial, LayoutMismatchRejected) {
  Rng rng(9);
  const oracle::Database db(24, 0);
  const oracle::BlockLayout wrong(12, 3);
  EXPECT_THROW(partial_search_deterministic(db, wrong), CheckFailure);
  EXPECT_THROW(partial_search_randomized(db, wrong, rng), CheckFailure);
}

}  // namespace
}  // namespace pqs::classical
