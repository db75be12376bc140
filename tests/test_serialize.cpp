// The wire-format contract: every SearchSpec / SearchReport field survives
// to_json -> dump -> parse -> from_json unchanged, for randomized values of
// every field — the property pqs_serve and the coalescing key stand on.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/serialize.h"
#include "common/check.h"
#include "common/json.h"
#include "common/random.h"
#include "service/service.h"

namespace pqs {
namespace {

// ---- Json basics -----------------------------------------------------------

TEST(JsonTest, ParsesAndDumpsCanonically) {
  const Json v = Json::parse(
      R"(  {"b": [1, 2.5, "x\n", true, null], "a": {"k": 18446744073709551615}} )");
  // Keys sort, whitespace drops, uint64 stays exact, doubles keep a ".0"
  // marker so kinds survive the round trip.
  EXPECT_EQ(v.dump(),
            R"({"a":{"k":18446744073709551615},"b":[1,2.5,"x\n",true,null]})");
  EXPECT_EQ(Json::parse(v.dump()).dump(), v.dump());
  EXPECT_EQ(v.at("a").at("k").as_uint(), 18446744073709551615ULL);
}

TEST(JsonTest, IntegerAndDoubleKindsAreDistinct) {
  EXPECT_TRUE(Json::parse("7").is_uint());
  EXPECT_TRUE(Json::parse("7.0").is_double());
  EXPECT_EQ(Json(1.0).dump(), "1.0");
  EXPECT_EQ(Json(std::uint64_t{1}).dump(), "1");
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_THROW((void)Json::parse("{\"a\":1,}"), CheckFailure);
  EXPECT_THROW((void)Json::parse("{\"a\":1} trailing"), CheckFailure);
  EXPECT_THROW((void)Json::parse("{\"a\":1,\"a\":2}"), CheckFailure);
  EXPECT_THROW((void)Json::parse("nulL"), CheckFailure);
}

TEST(JsonTest, RejectsAbsurdNestingInsteadOfOverflowingTheStack) {
  // A hostile client line must produce a parse error, not a segfault of
  // the serving process.
  const std::string bomb(200000, '[');
  EXPECT_THROW((void)Json::parse(bomb), CheckFailure);
  EXPECT_NO_THROW((void)Json::parse("[[[[[[[[[[1]]]]]]]]]]"));
}

TEST(JsonTest, RejectsSurrogateEscapesInsteadOfEmittingCesu8) {
  EXPECT_THROW((void)Json::parse(R"("\ud83d\ude00")"), CheckFailure);
  // Basic-plane escapes and raw UTF-8 both decode fine.
  EXPECT_EQ(Json::parse(R"("é中")").as_string(), "é中");
  EXPECT_EQ(Json::parse(R"("😀")").as_string(), "😀");
}

TEST(JsonTest, MissingKeyErrorNamesTheKey) {
  const Json v = Json::parse(R"({"present":1})");
  try {
    (void)v.at("absent");
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("absent"), std::string::npos);
  }
}

// ---- randomized spec round trip --------------------------------------------

SearchSpec random_spec(Rng& rng) {
  static const std::vector<std::string> kAlgorithms{
      "auto", "grover", "grk", "multi", "certainty", "noisy", "classical"};
  SearchSpec spec;
  spec.algorithm = kAlgorithms[rng.uniform_below(kAlgorithms.size())];
  const unsigned n = 2 + static_cast<unsigned>(rng.uniform_below(20));
  spec.n_items = std::uint64_t{1} << n;
  spec.n_blocks = std::uint64_t{1} << rng.uniform_below(n / 2 + 1);
  const std::size_t n_marked = 1 + rng.uniform_below(4);
  for (std::size_t i = 0; i < n_marked; ++i) {
    spec.marked.push_back(rng.uniform_below(spec.n_items));
  }
  spec.backend = static_cast<qsim::BackendKind>(rng.uniform_below(3));
  spec.batch.threads = static_cast<unsigned>(rng.uniform_below(8));
  spec.noise.kind = static_cast<qsim::NoiseKind>(rng.uniform_below(4));
  spec.noise.probability = static_cast<double>(rng.uniform_below(1000)) / 1e4;
  spec.seed = rng.next();  // any uint64, including > 2^53
  spec.min_success = static_cast<double>(rng.uniform_below(1000)) / 1e3;
  if (rng.uniform_below(2) == 0) {
    spec.l1 = rng.uniform_below(1u << 20);
  }
  if (rng.uniform_below(2) == 0) {
    spec.l2 = rng.uniform_below(1u << 20);
  }
  spec.shots = 1 + rng.uniform_below(1u << 16);
  return spec;
}

void expect_specs_equal(const SearchSpec& a, const SearchSpec& b) {
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_EQ(a.n_items, b.n_items);
  EXPECT_EQ(a.n_blocks, b.n_blocks);
  EXPECT_EQ(a.marked, b.marked);
  EXPECT_EQ(a.backend, b.backend);
  EXPECT_EQ(a.batch.threads, b.batch.threads);
  EXPECT_EQ(a.noise.kind, b.noise.kind);
  EXPECT_EQ(a.noise.probability, b.noise.probability);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.min_success, b.min_success);
  EXPECT_EQ(a.l1, b.l1);
  EXPECT_EQ(a.l2, b.l2);
  EXPECT_EQ(a.shots, b.shots);
}

TEST(SerializeSpecTest, EveryFieldRoundTripsForRandomSpecs) {
  Rng rng(20260729);
  for (int iteration = 0; iteration < 300; ++iteration) {
    const SearchSpec spec = random_spec(rng);
    const Json json = api::to_json(spec);
    // Through the actual wire: dump to a string and parse back.
    const SearchSpec back = api::spec_from_json(Json::parse(json.dump()));
    expect_specs_equal(spec, back);
  }
}

TEST(SerializeSpecTest, SeedBeyondDoublePrecisionSurvives) {
  SearchSpec spec = SearchSpec::single_target(4, 1, 3);
  spec.seed = 0xFFFFFFFFFFFFFFFFULL;  // would mangle through a double
  spec.n_items = std::uint64_t{1} << 62;
  spec.marked = {(std::uint64_t{1} << 62) - 1};
  const SearchSpec back =
      api::spec_from_json(Json::parse(api::to_json(spec).dump()));
  EXPECT_EQ(back.seed, 0xFFFFFFFFFFFFFFFFULL);
  EXPECT_EQ(back.n_items, std::uint64_t{1} << 62);
  EXPECT_EQ(back.marked.front(), (std::uint64_t{1} << 62) - 1);
}

TEST(SerializeSpecTest, UnknownFieldFailsNamingTheField) {
  try {
    (void)api::spec_from_json(Json::parse(R"({"algoritm":"grk"})"));
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("algoritm"), std::string::npos);
  }
}

TEST(SerializeSpecTest, PredicateSpecsCannotSerialize) {
  SearchSpec spec;
  spec.n_items = 64;
  spec.predicate = [](qsim::Index x) { return x == 9; };
  EXPECT_THROW((void)api::to_json(spec), CheckFailure);
}

// ---- randomized report round trip ------------------------------------------

TEST(SerializeReportTest, EveryFieldRoundTripsForRandomReports) {
  Rng rng(424242);
  for (int iteration = 0; iteration < 300; ++iteration) {
    SearchReport report;
    report.algorithm = iteration % 2 == 0 ? "grk" : "noisy";
    report.measured = rng.next();
    report.block_answer = rng.uniform_below(2) == 0;
    report.correct = rng.uniform_below(2) == 0;
    report.queries = rng.next();
    report.queries_per_trial = rng.next();
    report.trials = 1 + rng.uniform_below(1000);
    report.success_probability =
        static_cast<double>(rng.uniform_below(10000)) / 1e4;
    report.l1 = rng.uniform_below(1u << 20);
    report.l2 = rng.uniform_below(1u << 20);
    // One draw in four leaves the engine unset, as a classical run does.
    const std::uint64_t engine = rng.uniform_below(4);
    if (engine < 3) {
      report.backend_used = static_cast<qsim::BackendKind>(engine);
    }
    report.plan_cache_hit = rng.uniform_below(2) == 0;
    report.queue_ns = rng.next();
    report.plan_ns = rng.next();
    report.exec_ns = rng.next();
    report.detail = "detail line \"quoted\" #" + std::to_string(iteration);

    const Json json = api::to_json(report);
    EXPECT_EQ(json.has("backend_used"), report.backend_used.has_value());
    const SearchReport back = api::report_from_json(Json::parse(json.dump()));
    EXPECT_EQ(back.algorithm, report.algorithm);
    EXPECT_EQ(back.measured, report.measured);
    EXPECT_EQ(back.block_answer, report.block_answer);
    EXPECT_EQ(back.correct, report.correct);
    EXPECT_EQ(back.queries, report.queries);
    EXPECT_EQ(back.queries_per_trial, report.queries_per_trial);
    EXPECT_EQ(back.trials, report.trials);
    EXPECT_EQ(back.success_probability, report.success_probability);
    EXPECT_EQ(back.l1, report.l1);
    EXPECT_EQ(back.l2, report.l2);
    EXPECT_EQ(back.backend_used, report.backend_used);
    EXPECT_EQ(back.plan_cache_hit, report.plan_cache_hit);
    EXPECT_EQ(back.queue_ns, report.queue_ns);
    EXPECT_EQ(back.plan_ns, report.plan_ns);
    EXPECT_EQ(back.exec_ns, report.exec_ns);
    EXPECT_EQ(back.detail, report.detail);
  }
}

// ---- canonicalize ----------------------------------------------------------

TEST(CanonicalKeyTest, ThreadFanOutDoesNotChangeTheKey) {
  SearchSpec a = SearchSpec::single_target(4096, 4, 2731);
  SearchSpec b = a;
  b.batch.threads = 16;  // different execution shape, identical answer
  EXPECT_EQ(api::canonicalize(a).key, api::canonicalize(b).key);

  b.seed = a.seed + 1;  // different answer stream
  EXPECT_NE(api::canonicalize(a).key, api::canonicalize(b).key);
}

TEST(CanonicalKeyTest, PredicateAndExplicitMarkedSetCoalesce) {
  SearchSpec by_predicate;
  by_predicate.n_items = 256;
  by_predicate.n_blocks = 4;
  by_predicate.predicate = [](qsim::Index x) { return x % 100 == 7; };

  SearchSpec by_list = by_predicate;
  by_list.predicate = nullptr;
  by_list.marked = {207, 7, 107};  // same set, scrambled order
  EXPECT_EQ(api::canonicalize(by_predicate).key,
            api::canonicalize(by_list).key);
}

TEST(CanonicalKeyTest, CanonicalizeRejectsWhatServiceSubmitRejects) {
  // pqs_router keys submits with canonicalize and the worker admits them
  // through Service::submit: a spec only validate_knobs catches must fail
  // both, with one message.
  const SearchSpec spec = SearchSpec::single_target(4096, 3, 2731);
  const auto message_of = [](const auto& call) {
    try {
      call();
    } catch (const CheckFailure& e) {
      return std::string(e.what());
    }
    return std::string("(no throw)");
  };
  EXPECT_THROW((void)api::canonicalize(spec), CheckFailure);
  const std::string canonicalize_message =
      message_of([&] { (void)api::canonicalize(spec); });
  EXPECT_NE(canonicalize_message.find("n_blocks must divide n_items"),
            std::string::npos);
  Service service;
  EXPECT_EQ(canonicalize_message,
            message_of([&] { (void)service.submit(spec); }));
}

}  // namespace
}  // namespace pqs
