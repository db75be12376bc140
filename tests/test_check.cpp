#include "common/check.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace pqs {
namespace {

TEST(Check, PassingCheckDoesNothing) {
  EXPECT_NO_THROW(PQS_CHECK(1 + 1 == 2));
  EXPECT_NO_THROW(PQS_CHECK_MSG(true, "never shown"));
}

TEST(Check, FailingCheckThrowsCheckFailure) {
  EXPECT_THROW(PQS_CHECK(1 == 2), CheckFailure);
}

TEST(Check, FailureMessageContainsExpressionAndLocation) {
  try {
    PQS_CHECK_MSG(2 > 3, "custom context");
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 > 3"), std::string::npos);
    EXPECT_NE(what.find("test_check.cpp"), std::string::npos);
    EXPECT_NE(what.find("custom context"), std::string::npos);
  }
}

TEST(Check, WireMessageDropsOnlyTheSourceLocation) {
  try {
    PQS_CHECK_MSG(2 > 3, "custom context");
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    // what() keeps file:line for logs; the wire text is the expression and
    // the message, so an edit above a check changes no result bytes.
    EXPECT_EQ(wire_message(e), "PQS_CHECK failed: (2 > 3) — custom context");
    EXPECT_EQ(std::string(e.what()).find("PQS_CHECK failed: (2 > 3) at "),
              0u);
  }
  try {
    PQS_CHECK(1 == 2);
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    EXPECT_EQ(wire_message(e), "PQS_CHECK failed: (1 == 2)");
  }
  // A CheckFailure thrown with a plain message, and any other exception,
  // reach the wire unchanged.
  EXPECT_EQ(wire_message(CheckFailure("queue full")), "queue full");
  EXPECT_EQ(wire_message(std::runtime_error("disk")), "disk");
}

TEST(Check, CheckFiresInReleaseBuilds) {
  // PQS_CHECK must be active regardless of NDEBUG.
  bool fired = false;
  try {
    PQS_CHECK(false);
  } catch (const CheckFailure&) {
    fired = true;
  }
  EXPECT_TRUE(fired);
}

TEST(Check, SideEffectsEvaluatedExactlyOnce) {
  int calls = 0;
  const auto count = [&calls] {
    ++calls;
    return true;
  };
  PQS_CHECK(count());
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace pqs
