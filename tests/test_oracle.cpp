#include <gtest/gtest.h>

#include <cmath>

#include "common/check.h"
#include "common/math.h"
#include "oracle/blocks.h"
#include "oracle/database.h"
#include "oracle/marked_set.h"
#include "oracle/merit_list.h"

namespace pqs::oracle {
namespace {

TEST(Database, ProbeAnswersAndCounts) {
  const Database db(100, 42);
  EXPECT_FALSE(db.probe(0));
  EXPECT_TRUE(db.probe(42));
  EXPECT_EQ(db.queries(), 2u);
}

TEST(Database, PeekDoesNotCount) {
  const Database db(10, 3);
  EXPECT_TRUE(db.peek(3));
  EXPECT_FALSE(db.peek(4));
  EXPECT_EQ(db.queries(), 0u);
}

TEST(Database, ResetQueries) {
  const Database db(10, 3);
  db.probe(1);
  db.reset_queries();
  EXPECT_EQ(db.queries(), 0u);
}

TEST(Database, ConstructorValidates) {
  EXPECT_THROW(Database(0, 0), CheckFailure);
  EXPECT_THROW(Database(5, 5), CheckFailure);
}

TEST(Database, NonPowerOfTwoSizesAllowed) {
  const Database db(12, 7);  // the Figure-1 example size
  EXPECT_EQ(db.size(), 12u);
  EXPECT_TRUE(db.probe(7));
}

TEST(BlockLayout, AddressRoundTrip) {
  const BlockLayout layout(24, 4);
  EXPECT_EQ(layout.block_size(), 6u);
  for (Index x = 0; x < 24; ++x) {
    EXPECT_EQ(layout.address(layout.block_of(x), layout.offset_of(x)), x);
  }
}

TEST(BlockLayout, WithBitsMatchesPaperConvention) {
  // First k bits of the address = the block index.
  const auto layout = BlockLayout::with_bits(6, 2);
  EXPECT_EQ(layout.num_blocks(), 4u);
  EXPECT_EQ(layout.block_of(0b110101), 0b110101 >> 4);
}

TEST(BlockLayout, BlockBoundaries) {
  const BlockLayout layout(12, 3);
  EXPECT_EQ(layout.block_begin(0), 0u);
  EXPECT_EQ(layout.block_end(0), 4u);
  EXPECT_EQ(layout.block_begin(2), 8u);
  EXPECT_EQ(layout.block_end(2), 12u);
}

TEST(BlockLayout, RejectsUnevenPartition) {
  EXPECT_THROW(BlockLayout(10, 3), CheckFailure);
  EXPECT_THROW(BlockLayout(4, 8), CheckFailure);
}

TEST(MarkedDatabase, DeduplicatesAndSorts) {
  const MarkedDatabase db(16, {5, 3, 5, 9});
  EXPECT_EQ(db.num_marked(), 3u);
  EXPECT_TRUE(db.peek(3));
  EXPECT_TRUE(db.peek(5));
  EXPECT_TRUE(db.peek(9));
  EXPECT_FALSE(db.peek(4));
}

TEST(MarkedDatabase, EmptyMarkedSetAllowed) {
  const MarkedDatabase db(8, {});
  EXPECT_EQ(db.num_marked(), 0u);
  EXPECT_FALSE(db.probe(0));
}

TEST(MeritList, DeterministicFromSeed) {
  const MeritList a(64, 7);
  const MeritList b(64, 7);
  for (std::uint64_t r = 0; r < 64; ++r) {
    EXPECT_EQ(a.name_at_rank(r), b.name_at_rank(r));
  }
}

TEST(MeritList, DatabaseTargetsTrueRank) {
  const MeritList list(32, 11);
  const std::string student = list.name_at_rank(17);
  const Database db = list.database_for(student);
  EXPECT_EQ(db.size(), 32u);
  EXPECT_EQ(db.target(), 17u);
  EXPECT_EQ(list.true_rank(student), 17u);
}

TEST(MeritList, UnknownStudentThrows) {
  const MeritList list(8, 1);
  EXPECT_THROW(list.database_for("nobody"), CheckFailure);
}

TEST(MeritList, FractionLabels) {
  EXPECT_EQ(MeritList::fraction_label(0, 4), "top 25%");
  EXPECT_EQ(MeritList::fraction_label(3, 4), "bottom 25%");
  EXPECT_EQ(MeritList::fraction_label(1, 4), "25%-50% band");
}

}  // namespace
}  // namespace pqs::oracle
