// The wire-format contract: every SearchSpec / SearchReport field survives
// to_json -> dump -> parse -> from_json unchanged, for randomized values of
// every field — the property pqs_serve and the coalescing key stand on —
// and the tree-free writers (write_json, the journal's records) produce
// exactly the bytes of the equivalent tree's dump().
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "api/serialize.h"
#include "common/check.h"
#include "common/json.h"
#include "common/random.h"
#include "service/journal.h"
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

SearchReport random_report(Rng& rng, int iteration) {
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
  return report;
}

TEST(SerializeReportTest, EveryFieldRoundTripsForRandomReports) {
  Rng rng(424242);
  for (int iteration = 0; iteration < 300; ++iteration) {
    const SearchReport report = random_report(rng, iteration);
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

// ---- tree-free writers vs tree dumps ---------------------------------------

std::string written(const SearchSpec& spec) {
  std::string out = "prefix:";  // the writers append, never assign
  api::write_json(spec, out);
  return out.substr(7);
}

std::string written(const SearchReport& report) {
  std::string out = "prefix:";
  api::write_json(report, out);
  return out.substr(7);
}

TEST(WriterTest, SpecBytesEqualTheTreeDump) {
  SearchSpec spec = SearchSpec::single_target(4096, 4, 2731);
  EXPECT_EQ(written(spec), api::to_json(spec).dump());  // l1, l2 absent
  spec.l1 = 3;
  EXPECT_EQ(written(spec), api::to_json(spec).dump());  // l1 alone
  spec.l2 = 0;
  spec.algorithm = "q\"uo\\te\t\x01\xE2\x80\x94";  // escapes, raw UTF-8
  spec.min_success = 1e-300;
  spec.noise.probability = 1.0;
  spec.marked.clear();  // an empty array
  EXPECT_EQ(written(spec), api::to_json(spec).dump());
  EXPECT_NE(written(spec).find(R"("min_success":1e-300)"), std::string::npos);
  EXPECT_NE(written(spec).find(R"("noise_p":1.0)"), std::string::npos);

  Rng rng(20261019);
  for (int iteration = 0; iteration < 300; ++iteration) {
    const SearchSpec random = random_spec(rng);
    ASSERT_EQ(written(random), api::to_json(random).dump());
  }
}

TEST(WriterTest, ReportBytesEqualTheTreeDump) {
  SearchReport report;
  report.algorithm = "classical";
  report.success_probability = 1.0;
  ASSERT_FALSE(report.backend_used.has_value());
  EXPECT_EQ(written(report), api::to_json(report).dump());
  report.backend_used = qsim::BackendKind::kSymmetry;
  report.success_probability = 1e-300;
  report.detail = "line\nbreak \"quoted\" back\\slash \x1f";
  EXPECT_EQ(written(report), api::to_json(report).dump());

  Rng rng(1019);
  for (int iteration = 0; iteration < 300; ++iteration) {
    const SearchReport random = random_report(rng, iteration);
    ASSERT_EQ(written(random), api::to_json(random).dump());
  }
}

TEST(WriterTest, NonFiniteDoublesThrowLikeTheTreeDump) {
  SearchSpec spec = SearchSpec::single_target(4096, 4, 2731);
  spec.min_success = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)api::to_json(spec).dump(), CheckFailure);
  EXPECT_THROW((void)written(spec), CheckFailure);
}

TEST(WriterTest, CanonicalBytesAreTheSpecBytes) {
  Rng rng(77);
  int canonical = 0;
  for (int iteration = 0; iteration < 300; ++iteration) {
    SearchSpec spec = random_spec(rng);
    std::optional<api::CanonicalSpec> c;
    try {
      c = api::canonicalize(spec);
    } catch (const CheckFailure&) {
      continue;  // a random spec may not validate (duplicate marks)
    }
    ++canonical;
    ASSERT_EQ(c->json, written(c->spec));
    ASSERT_EQ(c->json, api::to_json(c->spec).dump());
  }
  EXPECT_GT(canonical, 100);
}

// The journal's records as the Json-tree builders assembled them before the
// writers replaced them: the bytes the writers must reproduce.
Json tree_accepted(std::uint64_t id, int priority, const SearchSpec& spec,
                   std::uint64_t t_ns) {
  Json record = Json::make_object();
  record["journal"] = "accepted";
  record["priority"] = priority >= 0 ? Json(std::uint64_t(priority))
                                     : Json(static_cast<double>(priority));
  record["spec"] = api::to_json(spec);
  record["t_ns"] = t_ns;
  record["id"] = id;
  return record;
}

Json tree_completed(std::uint64_t id, JobStatus status,
                    const SearchReport* report) {
  Json record = Json::make_object();
  record["journal"] = "completed";
  record["id"] = id;
  record["status"] = std::string(to_string(status));
  if (status == JobStatus::kDone) {
    record["report"] = api::to_json(*report);
  }
  return record;
}

TEST(JournalRecordTest, AcceptedRecordsEqualTheTreeDump) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("pqs_serialize_" + std::to_string(::getpid()) + ".wal"))
          .string();
  std::remove(path.c_str());
  SearchSpec spec = SearchSpec::single_target(4096, 4, 2731);
  spec.l1 = 2;
  const std::vector<int> priorities = {-3, 0, 7};
  {
    Journal journal(path, JournalSync::kNone, 41);
    for (const int priority : priorities) {
      std::string record =
          journal.accepted_record(api::canonicalize(spec), priority);
      journal.append_accepted(record);
    }
  }
  std::ifstream in(path);
  std::string line;
  std::uint64_t id = 41;
  for (const int priority : priorities) {
    ASSERT_TRUE(std::getline(in, line));
    const std::uint64_t t_ns = Json::parse(line).at("t_ns").as_uint();
    EXPECT_EQ(line, tree_accepted(id++, priority, spec, t_ns).dump());
  }
  EXPECT_FALSE(std::getline(in, line));
  std::remove(path.c_str());
}

TEST(JournalRecordTest, CompletedRecordsEqualTheTreeDump) {
  Rng rng(5);
  const SearchReport report = random_report(rng, 3);
  for (const JobStatus status :
       {JobStatus::kDone, JobStatus::kCancelled, JobStatus::kFailed}) {
    const SearchReport* embedded =
        status == JobStatus::kDone ? &report : nullptr;
    EXPECT_EQ(Journal::completed_record(18446744073709551615ULL, status,
                                        embedded),
              tree_completed(18446744073709551615ULL, status, embedded).dump() +
                  "\n");
  }
}

// ---- canonicalize ----------------------------------------------------------

TEST(CanonicalKeyTest, KeysArePinned) {
  // pqs_router shards on these keys and the result cache is keyed by them:
  // a change here moves every spec to another worker and invalidates
  // every cached result, so the bytes of the digest input are pinned.
  SearchSpec grk = SearchSpec::single_target(16384, 4, 12345);
  grk.algorithm = "grk";
  grk.seed = 7;
  EXPECT_EQ(api::canonicalize(grk).key, "0294bf83ac4086a9c80cd9cd6f4bdff9");

  SearchSpec noisy;
  noisy.algorithm = "noisy";
  noisy.n_items = 1024;
  noisy.n_blocks = 4;
  noisy.marked = {700, 3, 41};
  noisy.noise.kind = qsim::NoiseKind::kDepolarizing;
  noisy.noise.probability = 0.001;
  noisy.seed = 99;
  noisy.shots = 64;
  noisy.l1 = 2;
  noisy.l2 = 15;
  noisy.min_success = 0.5;
  noisy.backend = qsim::BackendKind::kDense;
  EXPECT_EQ(api::canonicalize(noisy).key, "90600271812588c75ce3863bab377e97");
}

TEST(CanonicalKeyTest, LegacyThreadsFieldIsIgnored) {
  // Journals written while specs carried a thread count hold "threads" in
  // every accepted spec: it parses, then leaves no trace in the bytes or
  // the key. Parsing runs nothing, so a huge count starts no thread.
  const std::string fields =
      R"("algorithm":"grk","marked":[2731],"n_blocks":4,"n_items":4096,)"
      R"("seed":7,"shots":20000)";
  const SearchSpec plain = api::spec_from_json(Json::parse("{" + fields + "}"));
  const SearchSpec legacy = api::spec_from_json(
      Json::parse("{" + fields + R"(,"threads":4096})"));
  EXPECT_EQ(written(legacy), written(plain));
  EXPECT_EQ(written(legacy).find("threads"), std::string::npos);
  EXPECT_EQ(api::canonicalize(legacy).key, api::canonicalize(plain).key);
  // Still checked: a thread count that is not a uint is malformed.
  EXPECT_THROW(api::spec_from_json(
                   Json::parse("{" + fields + R"(,"threads":-1})")),
               CheckFailure);

  SearchSpec reseeded = plain;
  reseeded.seed = plain.seed + 1;  // different answer stream
  EXPECT_NE(api::canonicalize(reseeded).key, api::canonicalize(plain).key);
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
