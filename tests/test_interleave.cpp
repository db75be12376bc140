#include "partial/interleave.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/math.h"
#include "partial/optimizer.h"

namespace pqs::partial {
namespace {

TEST(Schedule, CountsAndRendering) {
  Schedule s;
  s.segments = {{true, 12}, {false, 5}, {true, 3}};
  EXPECT_EQ(s.to_string(), "G^12 L^5 G^3");
}

TEST(Schedule, EmptyRendering) {
  Schedule s;
  EXPECT_EQ(s.to_string(), "(empty)");
}

TEST(Interleave, TwoSegmentsReproducesIntegerOptimizer) {
  // With max_segments = 2 and schedules constrained to alternation, the
  // search space includes G^l1 L^l2 — the optimum must match
  // optimize_integer exactly (both exhaustive over the same family).
  const std::uint64_t n_items = 1 << 10;
  const std::uint64_t k_blocks = 4;
  const double floor_p = default_min_success(n_items);
  const auto two = optimize_interleaved(n_items, k_blocks, floor_p, 2);
  const auto plain = optimize_integer(n_items, k_blocks, floor_p);
  EXPECT_EQ(two.queries, plain.queries);
  EXPECT_GE(two.success, floor_p);
}

TEST(Interleave, MoreSegmentsNeverHurt) {
  const std::uint64_t n_items = 1 << 10;
  const double floor_p = default_min_success(n_items);
  for (const std::uint64_t k : {2u, 4u}) {
    const auto s1 = optimize_interleaved(n_items, k, floor_p, 1);
    const auto s2 = optimize_interleaved(n_items, k, floor_p, 2);
    const auto s3 = optimize_interleaved(n_items, k, floor_p, 3);
    EXPECT_GE(s1.queries, s2.queries) << "K=" << k;
    EXPECT_GE(s2.queries, s3.queries) << "K=" << k;
  }
}

TEST(Interleave, OptimumMeetsFloorAndAlternates) {
  const std::uint64_t n_items = 1 << 8;
  const auto opt =
      optimize_interleaved(n_items, 4, default_min_success(n_items), 3);
  EXPECT_GE(opt.success, default_min_success(n_items));
  std::uint64_t iterations = 0;
  for (const auto& segment : opt.schedule.segments) {
    iterations += segment.count;
  }
  EXPECT_EQ(opt.queries, iterations + 1);  // + Step 3
  for (std::size_t i = 1; i < opt.schedule.segments.size(); ++i) {
    EXPECT_NE(opt.schedule.segments[i].global,
              opt.schedule.segments[i - 1].global)
        << "segments must alternate";
  }
}

TEST(Interleave, SingleSegmentIsGroverOrLocalOnly) {
  // max_segments = 1: either pure global amplification (close to full
  // search restricted to meeting the block floor) or pure local (only
  // useful for K = 2-ish geometries).
  const std::uint64_t n_items = 1 << 8;
  const auto opt =
      optimize_interleaved(n_items, 2, default_min_success(n_items), 1);
  EXPECT_LE(opt.schedule.segments.size(), 1u);
  EXPECT_GE(opt.success, default_min_success(n_items));
}

TEST(Interleave, RejectsAbsurdSegmentCounts) {
  EXPECT_THROW(optimize_interleaved(256, 4, 0.9, 0), CheckFailure);
  EXPECT_THROW(optimize_interleaved(256, 4, 0.9, 5), CheckFailure);
}

TEST(Interleave, ImpossibleFloorThrows) {
  EXPECT_THROW(optimize_interleaved(256, 4, 1.01, 2), CheckFailure);
}

}  // namespace
}  // namespace pqs::partial
