// Facade tests: every registered algorithm run through pqs::Engine matches
// the direct module call at a fixed seed (the facade adds dispatch, not
// behavior), plus registry semantics, "auto" planning, and spec validation.
#include "api/api.h"

#include <gtest/gtest.h>

#include <cmath>

#include "api/algorithms/adapters.h"
#include "classical/search.h"
#include "common/math.h"
#include "grover/amplitude_amplification.h"
#include "grover/bbht.h"
#include "grover/exact.h"
#include "grover/grover.h"
#include "oracle/blocks.h"
#include "oracle/database.h"
#include "oracle/marked_set.h"
#include "partial/certainty.h"
#include "partial/grk.h"
#include "partial/interleave.h"
#include "partial/multi.h"
#include "partial/noisy.h"
#include "partial/optimizer.h"
#include "partial/twelve.h"
#include "reduction/reduction.h"
#include "zalka/zalka.h"

namespace pqs {
namespace {

constexpr std::uint64_t kSeed = 20050613;

const Engine& shared_engine() {
  static const Engine engine;
  return engine;
}

TEST(RegistryTest, AllTwelveIssueNamesResolve) {
  const auto& registry = shared_engine().registry();
  for (const char* name :
       {"grover", "bbht", "exact", "grk", "multi", "certainty", "interleave",
        "twelve", "noisy", "reduction", "zalka", "classical"}) {
    EXPECT_EQ(registry.find(name).name(), name);
  }
  EXPECT_EQ(registry.find("ampamp").name(), "ampamp");  // bonus 13th entry
}

TEST(RegistryTest, UnknownNameThrowsListingKnownOnes) {
  EXPECT_THROW(shared_engine().registry().find("does-not-exist"),
               CheckFailure);
  SearchSpec spec = SearchSpec::single_target(64, 1, 3);
  spec.algorithm = "does-not-exist";
  EXPECT_THROW(shared_engine().run(spec), CheckFailure);
}

TEST(RegistryTest, DuplicateAndReservedNamesRejected) {
  Registry registry = Registry::with_builtin_algorithms();
  EXPECT_THROW(api::register_grover(registry), CheckFailure);  // duplicate
  EXPECT_THROW(
      registry.register_algorithm("auto", [] {
        return std::unique_ptr<Algorithm>();
      }),
      CheckFailure);
}

TEST(SearchSpecTest, ValidationRejectsMalformedRequests) {
  // api::canonicalize is the one admission check of a spec.
  const auto validate = [](const SearchSpec& s) { (void)api::canonicalize(s); };
  SearchSpec spec;  // no size, no marked set
  EXPECT_THROW(validate(spec), CheckFailure);
  spec = SearchSpec::single_target(64, 1, 99);  // marked out of range
  EXPECT_THROW(validate(spec), CheckFailure);
  spec = SearchSpec::single_target(64, 3, 3);  // K does not divide N
  EXPECT_THROW(validate(spec), CheckFailure);
  spec = SearchSpec::single_target(64, 1, 3);
  spec.predicate = [](qsim::Index) { return true; };  // both sources set
  EXPECT_THROW(validate(spec), CheckFailure);
  spec.predicate = nullptr;
  spec.marked = {3, 3};  // duplicates
  EXPECT_THROW(validate(spec), CheckFailure);
  spec.marked = {3};
  EXPECT_NO_THROW(validate(spec));
}

TEST(SearchSpecTest, PredicateMaterializesTheMarkedSet) {
  SearchSpec spec;
  spec.n_items = 128;
  spec.predicate = [](qsim::Index x) { return x % 32 == 5; };
  EXPECT_EQ(spec.resolve_marked(),
            (std::vector<qsim::Index>{5, 37, 69, 101}));
}

// -- byte-for-byte equivalence against the direct module calls ------------

TEST(EngineEquivalenceTest, Grover) {
  SearchSpec spec = SearchSpec::single_target(256, 1, 77);
  spec.algorithm = "grover";
  spec.seed = kSeed;
  const auto report = shared_engine().run(spec);

  const oracle::Database db(256, 77);
  Rng rng(kSeed);
  const auto direct = grover::search_with_iterations(
      db, grover::optimal_iterations(db.size()), rng);
  EXPECT_EQ(report.measured, direct.measured);
  EXPECT_EQ(report.correct, direct.correct);
  EXPECT_EQ(report.queries, direct.queries);
  EXPECT_DOUBLE_EQ(report.success_probability, direct.success_probability);
  EXPECT_EQ(report.backend_used, direct.backend_used);
}

TEST(EngineEquivalenceTest, Exact) {
  SearchSpec spec = SearchSpec::single_target(512, 1, 100);
  spec.algorithm = "exact";
  spec.seed = kSeed;
  const auto report = shared_engine().run(spec);

  const oracle::Database db(512, 100);
  Rng rng(kSeed);
  const auto direct = grover::search_exact(db, rng);
  EXPECT_EQ(report.measured, direct.measured);
  EXPECT_EQ(report.queries, direct.queries);
  EXPECT_DOUBLE_EQ(report.success_probability, direct.success_probability);
  EXPECT_TRUE(report.correct);
}

TEST(EngineEquivalenceTest, Bbht) {
  SearchSpec spec;
  spec.algorithm = "bbht";
  spec.n_items = 1024;
  spec.marked = {3, 500, 900};
  spec.seed = kSeed;
  const auto report = shared_engine().run(spec);

  const oracle::MarkedDatabase db(1024, {3, 500, 900});
  Rng rng(kSeed);
  const auto direct = grover::search_unknown(db, rng);
  ASSERT_TRUE(direct.found.has_value());
  EXPECT_EQ(report.measured, *direct.found);
  EXPECT_EQ(report.queries, direct.queries);
  EXPECT_TRUE(report.correct);
}

TEST(EngineEquivalenceTest, Ampamp) {
  SearchSpec spec;
  spec.algorithm = "ampamp";
  spec.n_items = 256;
  spec.marked = {7, 71, 135, 199};
  spec.seed = kSeed;
  const auto report = shared_engine().run(spec);

  const oracle::MarkedDatabase db(256, {7, 71, 135, 199});
  const auto backend = grover::amplify_uniform_on_backend(
      db, grover_optimal_iterations(256, 4));
  Rng rng(kSeed);
  EXPECT_EQ(report.measured, backend->sample(rng));
  EXPECT_EQ(report.queries, db.queries());
  EXPECT_DOUBLE_EQ(report.success_probability,
                   backend->marked_probability());
  EXPECT_TRUE(report.correct);
}

TEST(EngineEquivalenceTest, Grk) {
  SearchSpec spec = SearchSpec::single_target(4096, 4, 2731);
  spec.algorithm = "grk";
  spec.seed = kSeed;
  const auto report = shared_engine().run(spec);

  const oracle::Database db(4096, 2731);
  Rng rng(kSeed);
  const auto direct = partial::run_partial_search(db, 2, rng);
  EXPECT_EQ(report.l1, direct.l1);
  EXPECT_EQ(report.l2, direct.l2);
  EXPECT_EQ(report.measured, direct.measured_block);
  EXPECT_EQ(report.correct, direct.correct);
  EXPECT_EQ(report.queries, direct.queries);
  EXPECT_DOUBLE_EQ(report.success_probability, direct.block_probability);
  EXPECT_TRUE(report.block_answer);
}

TEST(EngineEquivalenceTest, Multi) {
  SearchSpec spec;
  spec.algorithm = "multi";
  spec.n_items = 1024;
  spec.n_blocks = 4;
  spec.marked = {260, 270, 300};  // all in block 1
  spec.seed = kSeed;
  const auto report = shared_engine().run(spec);

  const oracle::MarkedDatabase db(1024, {260, 270, 300});
  Rng rng(kSeed);
  const auto direct = partial::run_partial_search_multi(db, 2, rng);
  EXPECT_EQ(report.l1, direct.l1);
  EXPECT_EQ(report.l2, direct.l2);
  EXPECT_EQ(report.measured, direct.measured_block);
  EXPECT_EQ(report.queries, direct.queries);
  EXPECT_DOUBLE_EQ(report.success_probability, direct.block_probability);
}

TEST(EngineEquivalenceTest, Certainty) {
  SearchSpec spec = SearchSpec::single_target(1024, 8, 700);
  spec.algorithm = "certainty";
  spec.seed = kSeed;
  const auto report = shared_engine().run(spec);

  const oracle::Database db(1024, 700);
  Rng rng(kSeed);
  const auto direct = partial::run_partial_search_certain(db, 3, rng);
  EXPECT_EQ(report.measured, direct.measured_block);
  EXPECT_EQ(report.queries, direct.schedule.queries);
  EXPECT_DOUBLE_EQ(report.success_probability, direct.block_probability);
  EXPECT_TRUE(report.correct);
}

TEST(EngineEquivalenceTest, Interleave) {
  SearchSpec spec = SearchSpec::single_target(1024, 4, 333);
  spec.algorithm = "interleave";
  spec.seed = kSeed;
  const auto report = shared_engine().run(spec);

  const auto opt = partial::optimize_interleaved(
      1024, 4, partial::default_min_success(1024), 3);
  EXPECT_EQ(report.queries, opt.queries);
  // Replicate the adapter's execution + sampling stream.
  auto backend = qsim::make_backend(
      qsim::BackendKind::kAuto,
      qsim::BackendSpec::single_target(1024, 4, 333));
  for (const auto& segment : opt.schedule.segments) {  // they alternate
    backend->apply_grover_iterations(segment.global ? qsim::Partition::kGlobal
                                                    : qsim::Partition::kBlocks,
                                     segment.count);
  }
  backend->apply_step3();
  Rng rng(kSeed);
  EXPECT_EQ(report.measured, backend->sample_block(rng));
  EXPECT_DOUBLE_EQ(report.success_probability,
                   backend->block_probability(backend->target_block()));
}

TEST(EngineEquivalenceTest, Twelve) {
  SearchSpec spec = SearchSpec::single_target(12, 3, 7);
  spec.algorithm = "twelve";
  spec.seed = kSeed;
  const auto report = shared_engine().run(spec);

  EXPECT_EQ(report.queries, 2u);
  EXPECT_NEAR(report.success_probability,
              partial::two_query_block_probability(12, 3, 7), 1e-12);
  const auto trace = partial::run_figure1(7);
  EXPECT_NEAR(report.success_probability, trace.block_probability, 1e-12);
  EXPECT_TRUE(report.correct);  // probability-1 block measurement
}

TEST(EngineEquivalenceTest, Noisy) {
  SearchSpec spec = SearchSpec::single_target(256, 4, 100);
  spec.algorithm = "noisy";
  spec.noise = {qsim::NoiseKind::kDepolarizing, 0.01};
  spec.shots = 40;
  spec.seed = kSeed;
  const auto report = shared_engine().run(spec);

  const oracle::Database db(256, 100);
  Rng rng(kSeed);
  const auto direct = partial::run_noisy_partial_search(
      db, 2, spec.noise, 40, rng);
  EXPECT_EQ(report.trials, direct.trials);
  EXPECT_EQ(report.queries_per_trial, direct.queries_per_trial);
  EXPECT_DOUBLE_EQ(report.success_probability, direct.success_rate);
  EXPECT_EQ(report.queries, direct.trials * direct.queries_per_trial);
}

// kAuto reports the engine that ran: the symmetry engine for single-block
// requests (the Zalka circuit included), the dense one for noise
// trajectories. A classical scan runs no engine and reports none.
TEST(EngineBackendChoiceTest, AutoReportsTheEngineThatRan) {
  SearchSpec grk = SearchSpec::single_target(16384, 4, 5000);
  grk.algorithm = "grk";
  grk.seed = kSeed;
  EXPECT_EQ(shared_engine().run(grk).backend_used,
            qsim::BackendKind::kSymmetry);
  grk.shots = 2000;
  EXPECT_EQ(shared_engine().run(grk).backend_used,
            qsim::BackendKind::kSymmetry);

  SearchSpec noisy = SearchSpec::single_target(256, 4, 100);
  noisy.algorithm = "noisy";
  noisy.noise = {qsim::NoiseKind::kDepolarizing, 0.01};
  noisy.shots = 40;
  EXPECT_EQ(shared_engine().run(noisy).backend_used,
            qsim::BackendKind::kDense);

  SearchSpec zalka = SearchSpec::single_target(64, 1, 3);
  zalka.algorithm = "zalka";
  EXPECT_EQ(shared_engine().run(zalka).backend_used,
            qsim::BackendKind::kSymmetry);
  zalka.backend = qsim::BackendKind::kDense;
  EXPECT_EQ(shared_engine().run(zalka).backend_used,
            qsim::BackendKind::kDense);

  SearchSpec classical = SearchSpec::single_target(64, 1, 40);
  classical.algorithm = "classical";
  classical.seed = kSeed;
  EXPECT_FALSE(shared_engine().run(classical).backend_used.has_value());
}

TEST(EngineEquivalenceTest, Reduction) {
  SearchSpec spec = SearchSpec::single_target(4096, 4, 1365);
  spec.algorithm = "reduction";
  spec.seed = kSeed;
  const auto report = shared_engine().run(spec);

  const oracle::Database db(4096, 1365);
  Rng rng(kSeed);
  const auto direct = reduction::search_full_via_partial(db, 2, rng);
  EXPECT_EQ(report.measured, direct.found);
  EXPECT_EQ(report.queries, direct.total_queries);
  EXPECT_TRUE(report.correct);
}

TEST(EngineEquivalenceTest, Zalka) {
  SearchSpec spec = SearchSpec::single_target(64, 1, 3);
  spec.algorithm = "zalka";
  spec.seed = kSeed;
  const auto report = shared_engine().run(spec);

  zalka::ZalkaOptions options;
  options.lemma2_sample = 8;
  const auto direct =
      zalka::analyze_grover(6, grover_optimal_iterations(64), options);
  EXPECT_EQ(report.queries, direct.queries);
  EXPECT_DOUBLE_EQ(report.success_probability, direct.min_success);
  EXPECT_EQ(report.correct, direct.lemma2_holds);
}

TEST(EngineEquivalenceTest, Classical) {
  SearchSpec spec = SearchSpec::single_target(1024, 4, 600);
  spec.algorithm = "classical";
  spec.seed = kSeed;
  const auto report = shared_engine().run(spec);

  const oracle::Database db(1024, 600);
  Rng rng(kSeed);
  const auto direct = classical::partial_search_randomized(
      db, oracle::BlockLayout(1024, 4), rng);
  EXPECT_EQ(report.measured, direct.answer);
  EXPECT_EQ(report.queries, direct.probes);
  EXPECT_TRUE(report.correct);

  spec.n_blocks = 1;  // K = 1: the full-search baseline
  const auto full_report = shared_engine().run(spec);
  const oracle::Database db2(1024, 600);
  Rng rng2(kSeed);
  const auto full_direct = classical::full_search_randomized(db2, rng2);
  EXPECT_EQ(full_report.measured, full_direct.answer);
  EXPECT_EQ(full_report.queries, full_direct.probes);
}

// -- "auto" planning ------------------------------------------------------

TEST(EngineAutoTest, ResolvesPerTheCostModel) {
  const Engine& engine = shared_engine();
  SearchSpec spec = SearchSpec::single_target(4096, 1, 7);
  EXPECT_EQ(engine.resolve_algorithm(spec), "grover");
  spec.min_success = 1.0;
  EXPECT_EQ(engine.resolve_algorithm(spec), "exact");
  spec.min_success = 0.0;
  spec.n_blocks = 4;
  EXPECT_EQ(engine.resolve_algorithm(spec), "grk");
  spec.min_success = 1.0;
  EXPECT_EQ(engine.resolve_algorithm(spec), "certainty");
  spec.min_success = 0.0;
  spec.marked = {7, 17, 100};  // clustered in block 0
  EXPECT_EQ(engine.resolve_algorithm(spec), "multi");
  spec.n_blocks = 1;
  EXPECT_EQ(engine.resolve_algorithm(spec), "ampamp");
  spec.marked = {7};
  spec.n_blocks = 4;
  spec.noise = {qsim::NoiseKind::kDephasing, 0.01};
  EXPECT_EQ(engine.resolve_algorithm(spec), "noisy");

  // The Figure-1 shape routes to the two-query pattern.
  SearchSpec twelve = SearchSpec::single_target(12, 3, 7);
  EXPECT_EQ(engine.resolve_algorithm(twelve), "twelve");
  SearchSpec eight = SearchSpec::single_target(8, 4, 1);
  EXPECT_EQ(engine.resolve_algorithm(eight), "twelve");
}

TEST(EngineAutoTest, AutoRunsEndToEnd) {
  SearchSpec spec = SearchSpec::single_target(4096, 4, 2731);
  spec.seed = kSeed;  // algorithm stays "auto"
  const auto report = shared_engine().run(spec);
  EXPECT_EQ(report.algorithm, "grk");
  EXPECT_TRUE(report.correct);
}

TEST(EngineTest, NoisySpecRejectedOutsideTheNoisyAlgorithm) {
  SearchSpec spec = SearchSpec::single_target(256, 4, 3);
  spec.algorithm = "grk";
  spec.noise = {qsim::NoiseKind::kDepolarizing, 0.01};
  EXPECT_THROW(shared_engine().run(spec), CheckFailure);
}

TEST(EngineTest, ShotsFanOutAndReportTheMode) {
  SearchSpec spec = SearchSpec::single_target(4096, 4, 2731);
  spec.algorithm = "grk";
  spec.seed = kSeed;
  spec.shots = 200;
  const auto report = shared_engine().run(spec);
  EXPECT_EQ(report.trials, 200u);
  EXPECT_TRUE(report.correct);  // the mode is the target block at p ~ 0.94
  EXPECT_EQ(report.measured, 2731u >> 10);
}

TEST(EngineTest, SymmetryBackendMatchesDenseProbabilities) {
  SearchSpec spec = SearchSpec::single_target(1u << 14, 8, 9999);
  spec.algorithm = "grk";
  spec.seed = kSeed;
  spec.backend = qsim::BackendKind::kDense;
  const auto dense = shared_engine().run(spec);
  EXPECT_EQ(dense.backend_used, qsim::BackendKind::kDense);
  spec.backend = qsim::BackendKind::kSymmetry;
  const auto symmetry = shared_engine().run(spec);
  EXPECT_EQ(symmetry.backend_used, qsim::BackendKind::kSymmetry);
  EXPECT_NEAR(symmetry.success_probability, dense.success_probability,
              1e-10);
  EXPECT_EQ(symmetry.l1, dense.l1);
  EXPECT_EQ(symmetry.l2, dense.l2);
}

TEST(EngineTest, HugeSymmetryRunsPlanInstantly) {
  SearchSpec spec =
      SearchSpec::single_target(std::uint64_t{1} << 40, 8, 12345);
  spec.algorithm = "grk";
  spec.seed = kSeed;
  const auto report = shared_engine().run(spec);
  EXPECT_EQ(report.backend_used, qsim::BackendKind::kSymmetry);
  EXPECT_GT(report.success_probability, 0.99);
  EXPECT_TRUE(report.correct);
}

}  // namespace
}  // namespace pqs
