#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/random.h"

namespace pqs {
namespace {

TEST(RunningStats, MeanAndVarianceMatchDirectComputation) {
  const std::vector<double> xs{1.0, 2.0, 4.0, 8.0, 16.0};
  RunningStats rs;
  for (const double x : xs) {
    rs.add(x);
  }
  const double mean = (1 + 2 + 4 + 8 + 16) / 5.0;
  double var = 0.0;
  for (const double x : xs) {
    var += (x - mean) * (x - mean);
  }
  var /= 4.0;
  EXPECT_DOUBLE_EQ(rs.mean(), mean);
  EXPECT_NEAR(rs.variance(), var, 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), 1.0);
  EXPECT_DOUBLE_EQ(rs.max(), 16.0);
  EXPECT_EQ(rs.count(), 5u);
}

TEST(RunningStats, EmptyMeanThrows) {
  RunningStats rs;
  EXPECT_THROW(rs.mean(), CheckFailure);
}

TEST(RunningStats, SingleSampleHasZeroVariance) {
  RunningStats rs;
  rs.add(42.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
  EXPECT_DOUBLE_EQ(rs.stddev(), 0.0);
}

TEST(RunningStats, Ci95ShrinksWithSamples) {
  Rng rng(9);
  RunningStats small, large;
  for (int i = 0; i < 100; ++i) {
    small.add(rng.normal());
  }
  for (int i = 0; i < 10000; ++i) {
    large.add(rng.normal());
  }
  EXPECT_LT(large.ci95_halfwidth(), small.ci95_halfwidth());
}

TEST(SignedBar, PositiveGoesRightNegativeGoesLeft) {
  const std::string pos = signed_bar(0.5, 1.0, 10);
  const std::string neg = signed_bar(-0.5, 1.0, 10);
  EXPECT_EQ(pos[10], '|');
  EXPECT_EQ(pos[11], '#');
  EXPECT_EQ(pos[9], ' ');
  EXPECT_EQ(neg[9], '#');
  EXPECT_EQ(neg[11], ' ');
}

TEST(SignedBar, FullScaleFillsHalfWidth) {
  const std::string bar = signed_bar(1.0, 1.0, 8);
  EXPECT_EQ(bar.size(), 17u);
  EXPECT_EQ(bar.back(), '#');
}

TEST(SignedBar, ClampsBeyondMax) {
  EXPECT_EQ(signed_bar(5.0, 1.0, 8), signed_bar(1.0, 1.0, 8));
}

}  // namespace
}  // namespace pqs
