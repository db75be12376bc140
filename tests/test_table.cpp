#include "common/table.h"

#include <gtest/gtest.h>

#include "common/check.h"

namespace pqs {
namespace {

TEST(Table, RendersHeaderAndRows) {
  Table t({"K", "upper", "lower"});
  t.add_row({"2", "0.555", "0.230"});
  t.add_row({"32", "0.725", "0.647"});
  const std::string r = t.render();
  EXPECT_NE(r.find("upper"), std::string::npos);
  EXPECT_NE(r.find("0.555"), std::string::npos);
  EXPECT_NE(r.find("0.647"), std::string::npos);
}

TEST(Table, TitleAppearsFirst) {
  Table t({"a"});
  t.set_title("Section 3.1 table");
  const std::string r = t.render();
  EXPECT_EQ(r.rfind("Section 3.1 table", 0), 0u);
}

TEST(Table, ColumnsAreAligned) {
  Table t({"x", "yy"});
  t.add_row({"longvalue", "1"});
  const std::string r = t.render();
  // Every line should have the same length.
  std::size_t first_len = std::string::npos;
  std::size_t pos = 0;
  while (pos < r.size()) {
    const auto eol = r.find('\n', pos);
    const auto len = eol - pos;
    if (first_len == std::string::npos) {
      first_len = len;
    } else {
      EXPECT_EQ(len, first_len);
    }
    pos = eol + 1;
  }
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckFailure);
}

TEST(Table, EmptyHeaderThrows) {
  EXPECT_THROW(Table({}), CheckFailure);
}

TEST(Table, NumFormatsFixedPrecision) {
  EXPECT_EQ(Table::num(0.7853981, 3), "0.785");
  EXPECT_EQ(Table::num(2.0, 1), "2.0");
  EXPECT_EQ(Table::num(std::uint64_t{42}), "42");
}

}  // namespace
}  // namespace pqs
