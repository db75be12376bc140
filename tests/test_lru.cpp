// LruMap and the bounded plan cache: capacity is enforced, recency rules
// eviction, and the counters a deployment watches stay truthful.
#include <gtest/gtest.h>

#include <string>

#include "api/planner.h"
#include "common/check.h"
#include "common/lru.h"

namespace pqs {
namespace {

TEST(LruMapTest, EvictsLeastRecentlyUsed) {
  LruMap<int, std::string> map(2);
  map.put(1, "one");
  map.put(2, "two");
  ASSERT_NE(map.find(1), nullptr);  // touch 1: now 2 is the coldest
  map.put(3, "three");
  EXPECT_EQ(map.find(2), nullptr);
  EXPECT_NE(map.find(1), nullptr);
  EXPECT_NE(map.find(3), nullptr);
  EXPECT_EQ(map.evictions(), 1u);
  EXPECT_EQ(map.size(), 2u);
}

TEST(LruMapTest, PutOverwritesAndRefreshes) {
  LruMap<int, int> map(2);
  map.put(1, 10);
  map.put(2, 20);
  map.put(1, 11);  // overwrite refreshes recency: 2 becomes the coldest
  map.put(3, 30);
  EXPECT_EQ(map.find(2), nullptr);
  ASSERT_NE(map.find(1), nullptr);
  EXPECT_EQ(*map.find(1), 11);
}

TEST(PlannerLruTest, PlanCacheIsBoundedWithCounters) {
  Planner planner(/*capacity=*/2);
  // Three distinct keys through a 2-plan cache: the first gets evicted.
  (void)planner.schedule(1u << 10, 4, 0.9);
  (void)planner.schedule(1u << 11, 4, 0.9);
  (void)planner.schedule(1u << 12, 4, 0.9);
  EXPECT_EQ(planner.size(), 2u);
  EXPECT_EQ(planner.misses(), 3u);
  EXPECT_EQ(planner.evictions(), 1u);

  // The evicted key replans (miss); the resident keys hit.
  EXPECT_TRUE(planner.schedule(1u << 12, 4, 0.9).cache_hit);
  EXPECT_FALSE(planner.schedule(1u << 10, 4, 0.9).cache_hit);
  EXPECT_EQ(planner.hits(), 1u);
  EXPECT_EQ(planner.misses(), 4u);
}

TEST(PlannerLruTest, DefaultCapacityIsDocumented) {
  EXPECT_EQ(Planner::kDefaultCapacity, 1024u);
}

}  // namespace
}  // namespace pqs
