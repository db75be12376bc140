#include "common/cli.h"

#include <gtest/gtest.h>

#include "common/check.h"

namespace pqs {
namespace {

Cli make_cli(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return Cli(static_cast<int>(args.size()), args.data());
}

TEST(Cli, ParsesSpaceSeparatedValue) {
  auto cli = make_cli({"--n", "16"});
  EXPECT_EQ(cli.get_int("n", 0, "qubits"), 16);
}

TEST(Cli, ParsesEqualsValue) {
  auto cli = make_cli({"--eps=0.25"});
  EXPECT_DOUBLE_EQ(cli.get_double("eps", 0.0, "epsilon"), 0.25);
}

TEST(Cli, BareFlagIsTrue) {
  auto cli = make_cli({"--verbose"});
  EXPECT_TRUE(cli.get_bool("verbose", false, "chatty"));
}

TEST(Cli, DefaultsApplyWhenAbsent) {
  auto cli = make_cli({});
  EXPECT_EQ(cli.get_int("n", 12, "qubits"), 12);
  EXPECT_EQ(cli.get_string("mode", "auto", "mode"), "auto");
  EXPECT_FALSE(cli.get_bool("verbose", false, "chatty"));
}

TEST(Cli, BooleanSpellings) {
  EXPECT_TRUE(make_cli({"--x", "yes"}).get_bool("x", false, ""));
  EXPECT_FALSE(make_cli({"--x", "0"}).get_bool("x", true, ""));
  EXPECT_THROW(make_cli({"--x", "maybe"}).get_bool("x", false, ""),
               CheckFailure);
}

TEST(Cli, BadIntegerThrows) {
  auto cli = make_cli({"--n", "abc"});
  EXPECT_THROW(cli.get_int("n", 0, "qubits"), CheckFailure);
}

TEST(Cli, NumbersWithTrailingCharactersThrow) {
  // std::stoll / std::stod stop at the first bad character; a value counts
  // only when all of it parses.
  EXPECT_THROW(make_cli({"--qubits", "8x"}).get_int("qubits", 0, ""),
               CheckFailure);
  EXPECT_THROW(make_cli({"--qubits", "1e1"}).get_int("qubits", 0, ""),
               CheckFailure);
  EXPECT_THROW(make_cli({"--threads=4x"}).get_int("threads", 0, ""),
               CheckFailure);
  EXPECT_THROW(make_cli({"--p", "0.25x"}).get_double("p", 0.0, ""),
               CheckFailure);
  EXPECT_THROW(make_cli({"--p", "1e-3 "}).get_double("p", 0.0, ""),
               CheckFailure);
  EXPECT_EQ(make_cli({"--qubits", "8"}).get_int("qubits", 0, ""), 8);
  EXPECT_DOUBLE_EQ(make_cli({"--p", "1e-3"}).get_double("p", 0.0, ""), 1e-3);
}

TEST(Cli, HelpRequested) {
  auto cli = make_cli({"--help"});
  EXPECT_TRUE(cli.help_requested());
  auto cli2 = make_cli({"-h"});
  EXPECT_TRUE(cli2.help_requested());
}

TEST(Cli, HelpListsDeclaredFlags) {
  auto cli = make_cli({});
  cli.get_int("qubits", 16, "number of address qubits");
  const std::string h = cli.help();
  EXPECT_NE(h.find("--qubits"), std::string::npos);
  EXPECT_NE(h.find("number of address qubits"), std::string::npos);
}

TEST(Cli, FinishRejectsUnknownFlags) {
  auto cli = make_cli({"--typo", "3"});
  cli.get_int("n", 0, "qubits");
  EXPECT_THROW(cli.finish(), CheckFailure);
}

TEST(Cli, UnknownFlagErrorNamesTheFlagAndSuggests) {
  auto cli = make_cli({"--shotz", "100"});
  cli.get_int("shots", 1, "measurement shots");
  cli.get_int("seed", 2005, "rng seed");
  try {
    cli.finish();
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("--shotz"), std::string::npos);
    EXPECT_NE(message.find("did you mean --shots?"), std::string::npos);
  }
}

TEST(Cli, FinishAcceptsDeclaredFlags) {
  auto cli = make_cli({"--n", "3"});
  cli.get_int("n", 0, "qubits");
  EXPECT_NO_THROW(cli.finish());
}

TEST(Cli, PositionalArgumentsRejected) {
  EXPECT_THROW(make_cli({"positional"}), CheckFailure);
}

TEST(Cli, NegativeNumberAsValue) {
  auto cli = make_cli({"--shift=-5"});
  EXPECT_EQ(cli.get_int("shift", 0, "shift"), -5);
}

}  // namespace
}  // namespace pqs
