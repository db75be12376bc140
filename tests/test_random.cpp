#include "common/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace pqs {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.next() == b.next() ? 1 : 0;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformBelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.uniform_below(bound), bound);
    }
  }
}

TEST(Rng, UniformBelowOneIsAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(rng.uniform_below(1), 0u);
  }
}

TEST(Rng, UniformBelowCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(rng.uniform_below(8));
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformBelowIsApproximatelyUniform) {
  Rng rng(13);
  constexpr int kBuckets = 10;
  constexpr int kSamples = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kSamples; ++i) {
    ++counts[rng.uniform_below(kBuckets)];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c, kSamples / kBuckets, 600);  // ~6 sigma
  }
}

TEST(Rng, UniformIntInclusiveEndpoints) {
  Rng rng(17);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, Uniform01HalfOpenAndCentered) {
  Rng rng(19);
  double sum = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(23);
  double sum = 0.0, sum2 = 0.0;
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / kSamples, 0.0, 0.02);
  EXPECT_NEAR(sum2 / kSamples, 1.0, 0.02);
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(31);
  const auto perm = rng.permutation(100);
  std::set<std::uint64_t> values(perm.begin(), perm.end());
  EXPECT_EQ(values.size(), 100u);
  EXPECT_EQ(*values.begin(), 0u);
  EXPECT_EQ(*values.rbegin(), 99u);
}

TEST(Rng, PermutationShuffles) {
  Rng rng(37);
  const auto perm = rng.permutation(1000);
  std::uint64_t fixed_points = 0;
  for (std::uint64_t i = 0; i < perm.size(); ++i) {
    fixed_points += perm[i] == i ? 1 : 0;
  }
  EXPECT_LT(fixed_points, 20u);  // expectation is 1
}

TEST(Rng, SampleDiscreteRespectsWeights) {
  Rng rng(41);
  const std::vector<double> weights{1.0, 0.0, 3.0};
  int counts[3] = {};
  for (int i = 0; i < 40000; ++i) {
    ++counts[rng.sample_discrete(weights)];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.2);
}

TEST(Rng, SampleDiscreteRejectsDegenerateInput) {
  Rng rng(1);
  EXPECT_THROW(rng.sample_discrete({}), CheckFailure);
  EXPECT_THROW(rng.sample_discrete({0.0, 0.0}), CheckFailure);
  EXPECT_THROW(rng.sample_discrete({1.0, -1.0}), CheckFailure);
}

TEST(Splitmix64, KnownFirstOutput) {
  // Reference value from the splitmix64 reference implementation with
  // state 0: first output is 0xe220a8397b1dcdaf.
  std::uint64_t state = 0;
  EXPECT_EQ(splitmix64(state), 0xe220a8397b1dcdafULL);
}

}  // namespace
}  // namespace pqs
