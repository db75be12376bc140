// The backend support matrix: every public driver must either agree with
// the dense engine (to exact or statistical tolerance) under BOTH engines
// and batched execution, or reject the unsupported combination loudly —
// never fall back silently. This is the regression net for the "--backend
// silently ignored" class of bug: a driver that quietly ran dense would
// fail the symmetry-agreement rows here the moment its dynamics drifted,
// and the unsupported rows pin the loud CheckFailure contract.
#include <gtest/gtest.h>

#include <cmath>

#include "common/check.h"
#include "common/math.h"
#include "grover/amplitude_amplification.h"
#include "grover/bbht.h"
#include "grover/exact.h"
#include "grover/grover.h"
#include "oracle/database.h"
#include "oracle/marked_set.h"
#include "partial/certainty.h"
#include "partial/grk.h"
#include "partial/multi.h"
#include "partial/noisy.h"
#include "partial/optimizer.h"
#include "partial/twelve.h"
#include "reduction/reduction.h"
#include "reference_kernels.h"
#include "zalka/zalka.h"

namespace pqs {
namespace {

using qsim::BackendKind;

class BackendMatrix : public ::testing::TestWithParam<BackendKind> {};

INSTANTIATE_TEST_SUITE_P(Engines, BackendMatrix,
                         ::testing::Values(BackendKind::kDense,
                                           BackendKind::kSymmetry),
                         [](const auto& info) {
                           return qsim::to_string(info.param);
                         });

TEST_P(BackendMatrix, GroverSearchAgreesWithClosedForm) {
  const oracle::Database db = oracle::Database::with_qubits(10, 700);
  Rng rng(1);
  const auto result =
      grover::search(db, rng, {.backend = GetParam()});
  EXPECT_EQ(result.backend_used, GetParam());
  const double theta = grover_angle(db.size());
  const double expected = std::pow(
      std::sin((2.0 * static_cast<double>(result.queries) + 1.0) * theta), 2);
  EXPECT_NEAR(result.success_probability, expected, 1e-10);
}

TEST_P(BackendMatrix, ExactSearchIsSureSuccess) {
  const oracle::Database db = oracle::Database::with_qubits(9, 17);
  Rng rng(2);
  for (int trial = 0; trial < 5; ++trial) {
    const auto result = grover::search_exact(db, rng, {.backend = GetParam()});
    ASSERT_TRUE(result.correct);
    ASSERT_NEAR(result.success_probability, 1.0, 1e-9);
    EXPECT_EQ(result.backend_used, GetParam());
  }
}

TEST_P(BackendMatrix, BbhtFindsMarkedItems) {
  Rng rng(3);
  const oracle::MarkedDatabase db(1024, {3, 77, 500, 900});
  grover::BbhtOptions options;
  options.backend = GetParam();
  int found = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const auto result = grover::search_unknown(db, rng, options);
    if (result.found.has_value()) {
      ASSERT_TRUE(db.peek(*result.found));
      ++found;
    }
  }
  EXPECT_GE(found, 19);
}

TEST_P(BackendMatrix, BbhtBatchedMeanWithinTheoremBound) {
  const oracle::MarkedDatabase db(1024, {11, 222, 333});
  grover::BbhtOptions options;
  options.backend = GetParam();
  db.reset_queries();
  const auto report = grover::search_unknown_batch(db, 200, options,
                                                   {.threads = 0, .seed = 7});
  EXPECT_EQ(report.shots, 200u);
  EXPECT_GE(report.found, 198u);
  EXPECT_LT(report.mean_queries, grover::bbht_expected_queries_bound(1024, 3));
  // The database meter advanced by exactly the batch total.
  EXPECT_NEAR(static_cast<double>(db.queries()),
              report.mean_queries * 200.0, 0.5);
}

TEST_P(BackendMatrix, BbhtBatchedIsDeterministicAcrossThreadCounts) {
  const oracle::MarkedDatabase db(512, {99});
  grover::BbhtOptions options;
  options.backend = GetParam();
  const auto serial = grover::search_unknown_batch(db, 64, options,
                                                   {.threads = 1, .seed = 5});
  const auto fanned = grover::search_unknown_batch(db, 64, options,
                                                   {.threads = 0, .seed = 5});
  EXPECT_EQ(serial.found, fanned.found);
  EXPECT_DOUBLE_EQ(serial.mean_queries, fanned.mean_queries);
  EXPECT_DOUBLE_EQ(serial.mean_rounds, fanned.mean_rounds);
}

TEST_P(BackendMatrix, AmplifyUniformMatchesClosedForm) {
  const oracle::MarkedDatabase db(256, {1, 100, 200});
  const double a = 3.0 / 256.0;
  for (std::uint64_t j = 0; j <= 6; ++j) {
    db.reset_queries();
    const auto backend = grover::amplify_uniform_on_backend(db, j, GetParam());
    ASSERT_NEAR(backend->marked_probability(),
                grover::amplified_success_probability(a, j), 1e-10)
        << "j=" << j;
    EXPECT_EQ(db.queries(), j);
  }
}

TEST_P(BackendMatrix, AmplifyUniformMatchesGateLevelAmplify) {
  const unsigned n = 6;
  const oracle::MarkedDatabase db(pow2(n), {10, 20});
  const auto gate_level = qsim::reference::amplify(
      n, qsim::reference::hadamard_preparation(), db, 4);
  const auto backend = grover::amplify_uniform_on_backend(db, 4, GetParam());
  const double p_gate = qsim::reference::marked_probability(gate_level, db);
  EXPECT_NEAR(backend->marked_probability(), p_gate, 1e-10);
}

TEST_P(BackendMatrix, PartialSearchAgreesAcrossEngines) {
  const oracle::Database db = oracle::Database::with_qubits(12, 2731);
  Rng rng(4);
  partial::GrkOptions options;
  options.backend = GetParam();
  const auto run = partial::run_partial_search(db, 2, rng, options);
  partial::GrkOptions dense;
  dense.backend = BackendKind::kDense;
  const auto ref = partial::run_partial_search(db, 2, rng, dense);
  EXPECT_NEAR(run.block_probability, ref.block_probability, 1e-12);
  EXPECT_EQ(run.queries, ref.queries);
}

TEST_P(BackendMatrix, CertainPartialSearchIsCertain) {
  const oracle::Database db = oracle::Database::with_qubits(10, 3);
  Rng rng(5);
  const auto run = partial::run_partial_search_certain(db, 2, rng, GetParam());
  EXPECT_TRUE(run.correct);
  EXPECT_NEAR(run.block_probability, 1.0, 1e-9);
}

TEST_P(BackendMatrix, TwelveItemPatternIsExact) {
  for (qsim::Index t = 0; t < 12; ++t) {
    const auto trace = partial::run_figure1(t, GetParam());
    ASSERT_NEAR(trace.block_probability, 1.0, 1e-12) << "t=" << t;
    ASSERT_NEAR(trace.target_probability, 0.75, 1e-12) << "t=" << t;
  }
  EXPECT_NEAR(partial::two_query_block_probability(8, 4, 5, GetParam()), 1.0,
              1e-12);
}

TEST_P(BackendMatrix, ReductionRecoversFullAddress) {
  const oracle::Database db = oracle::Database::with_qubits(12, 1234);
  Rng rng(6);
  reduction::ReductionOptions options;
  options.backend = GetParam();
  const auto result = reduction::search_full_via_partial(db, 2, rng, options);
  EXPECT_TRUE(result.correct);
  EXPECT_EQ(result.found, 1234u);
}

TEST_P(BackendMatrix, NoisyPartialCleanRunMatchesGrk) {
  const oracle::Database db = oracle::Database::with_qubits(10, 700);
  Rng rng(7);
  partial::NoisyOptions options;
  options.backend = GetParam();
  const qsim::NoiseModel none;
  const auto run =
      partial::run_noisy_partial_search(db, 2, none, 400, rng, options);
  EXPECT_EQ(run.backend_used, GetParam());
  // Clean success at n=10 with the tight floor is >= 1 - 1/sqrt(N) ~ 0.97.
  EXPECT_GT(run.success_rate, 0.9);
  EXPECT_EQ(run.mean_injected, 0.0);
}

TEST_P(BackendMatrix, NoisyTrialsAreDeterministicAcrossThreadCounts) {
  const oracle::Database db = oracle::Database::with_qubits(8, 99);
  const qsim::NoiseModel model{qsim::NoiseKind::kDepolarizing, 0.02};
  partial::NoisyOptions serial;
  serial.backend = GetParam();
  serial.batch.threads = 1;
  partial::NoisyOptions fanned;
  fanned.backend = GetParam();
  fanned.batch.threads = 0;
  Rng rng_a(11), rng_b(11);
  const auto a = partial::run_noisy_partial_search(db, 2, model, 200, rng_a,
                                                   serial);
  const auto b = partial::run_noisy_partial_search(db, 2, model, 200, rng_b,
                                                   fanned);
  EXPECT_DOUBLE_EQ(a.success_rate, b.success_rate);
  EXPECT_DOUBLE_EQ(a.mean_injected, b.mean_injected);
}

// The headline scaling claim: the class-moment noise channel reproduces the
// dense trajectory success-rate curve to statistical tolerance — checked at
// n = 10 where both engines run — and then extends beyond the dense ceiling
// (n = 32) where only the symmetry engine can follow, still reproducing the
// clean baseline and the decohered 1/K floor that bracket the dense curves.
TEST(BackendMatrixNoise, SymmetryNoiseCurveMatchesDenseStatistically) {
  const oracle::Database db = oracle::Database::with_qubits(10, 700);
  const std::uint64_t trials = 1500;
  for (const auto kind :
       {qsim::NoiseKind::kDepolarizing, qsim::NoiseKind::kDephasing,
        qsim::NoiseKind::kBitFlip}) {
    for (const double p : {0.003, 0.01, 0.05}) {
      const qsim::NoiseModel model{kind, p};
      Rng rng_d(21), rng_s(21);
      partial::NoisyOptions dense;
      dense.backend = qsim::BackendKind::kDense;
      partial::NoisyOptions symm;
      symm.backend = qsim::BackendKind::kSymmetry;
      const auto d =
          partial::run_noisy_partial_search(db, 2, model, trials, rng_d, dense);
      const auto s =
          partial::run_noisy_partial_search(db, 2, model, trials, rng_s, symm);
      // ~3 combined sigmas at 1500 trials is ~0.04; allow model bias too.
      EXPECT_NEAR(d.success_rate, s.success_rate, 0.06)
          << qsim::noise_kind_name(kind) << " p=" << p;
      EXPECT_NEAR(d.mean_injected, s.mean_injected,
                  0.15 * (d.mean_injected + 1.0));
    }
  }
}

TEST(BackendMatrixNoise, SymmetryRunsNoisePastTheDenseCeiling) {
  // n = 32 > kMaxQubits: only the symmetry engine can run this at all; the
  // dense engine must refuse loudly rather than fall back.
  const std::uint64_t n_items = std::uint64_t{1} << 32;
  const oracle::Database db(n_items, 123456789);
  Rng rng(33);
  partial::NoisyOptions symm;
  symm.backend = qsim::BackendKind::kSymmetry;
  // No explicit schedule: the driver's default goes through
  // optimize_schedule, which must stay affordable at this size (the exact
  // integer scan would take ~20 s before any trial ran).
  const qsim::NoiseModel clean;
  const auto baseline =
      partial::run_noisy_partial_search(db, 2, clean, 60, rng, symm);
  EXPECT_GT(baseline.success_rate, 0.95);  // asymptotic schedule: ~1

  // At ~40k queries x 32 qubits, p = 0.01 fully decoheres the register:
  // the block answer must sit at the 1/K = 0.25 guess rate, exactly as the
  // dense curves at n = 20 end up once mean injected errors >> 1.
  const qsim::NoiseModel heavy{qsim::NoiseKind::kDepolarizing, 0.01};
  const auto decohered =
      partial::run_noisy_partial_search(db, 2, heavy, 400, rng, symm);
  EXPECT_NEAR(decohered.success_rate, 0.25, 0.08);

  partial::NoisyOptions dense;
  dense.backend = qsim::BackendKind::kDense;
  EXPECT_THROW(partial::run_noisy_partial_search(db, 2, heavy, 10, rng, dense),
               CheckFailure);
}

// Unsupported (module, backend) pairs fail loudly — never silently dense.
TEST(BackendMatrixUnsupported, LoudErrorsNotSilentFallbacks) {
  Rng rng(8);

  // Zalka's hybrid argument needs full amplitude vectors.
  zalka::ZalkaOptions zopts;
  zopts.backend = qsim::BackendKind::kSymmetry;
  EXPECT_THROW(zalka::analyze_grover(4, 3, zopts), CheckFailure);

  // Snapshot capture needs the dense engine.
  const oracle::Database db = oracle::Database::with_qubits(8, 1);
  partial::GrkOptions snapshots;
  snapshots.backend = qsim::BackendKind::kSymmetry;
  snapshots.capture_snapshots = true;
  EXPECT_THROW(partial::run_partial_search(db, 2, rng, snapshots),
               CheckFailure);

  // Multi-marked noise has no class-moment derivation: loud, not wrong.
  const oracle::MarkedDatabase multi(256, {7, 9});
  auto backend = qsim::make_backend(qsim::BackendKind::kSymmetry,
                                    qsim::BackendSpec{256, 1, {7, 9}});
  const qsim::NoiseModel model{qsim::NoiseKind::kDephasing, 0.1};
  Rng noise_rng(9);
  EXPECT_THROW(backend->apply_noise(model, noise_rng), CheckFailure);
  EXPECT_THROW(qsim::require_noise_support(qsim::BackendKind::kSymmetry,
                                           backend->spec(), "multi noise"),
               CheckFailure);

  // Noise on a non-power-of-two database has no qubit structure.
  auto twelve = qsim::make_backend(qsim::BackendKind::kSymmetry,
                                   qsim::BackendSpec{12, 3, {7}});
  EXPECT_THROW(twelve->apply_noise(model, noise_rng), CheckFailure);

  // A noisy symmetry state cannot be materialized as amplitudes.
  auto sym = qsim::make_backend(qsim::BackendKind::kSymmetry,
                                qsim::BackendSpec{256, 4, {7}});
  sym->apply_noise(qsim::NoiseModel{qsim::NoiseKind::kDephasing, 1.0},
                   noise_rng);
  EXPECT_THROW(sym->amplitudes_copy(), CheckFailure);
}

}  // namespace
}  // namespace pqs
