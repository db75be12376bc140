#include "qsim/noise.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/check.h"
#include "common/math.h"
#include "partial/noisy.h"
#include "qsim/backend.h"
#include "reference_kernels.h"

namespace pqs::qsim {
namespace {

/// A dense backend on n qubits in |psi0>; the channel ignores the target.
std::unique_ptr<Backend> uniform(unsigned n) {
  return make_backend(BackendKind::kDense,
                      BackendSpec::single_target(pow2(n), 1, 0));
}

double linf(const Backend& a, const Backend& b) {
  return reference::linf_distance(a.amplitudes_copy(), b.amplitudes_copy());
}

TEST(Noise, DisabledModelInjectsNothing) {
  const auto sv = uniform(5);
  Rng rng(1);
  NoiseModel model;  // kNone
  EXPECT_EQ(sv->apply_noise(model, rng), 0u);
  model = {NoiseKind::kDepolarizing, 0.0};
  EXPECT_EQ(sv->apply_noise(model, rng), 0u);
  EXPECT_LT(linf(*sv, *uniform(5)), 1e-15);
}

TEST(Noise, ProbabilityOneDephasingFlipsEveryOneBit) {
  // Z on every qubit: basis state |x> picks up (-1)^{popcount(x)}.
  const auto sv = uniform(3);
  Rng rng(2);
  const NoiseModel model{NoiseKind::kDephasing, 1.0};
  EXPECT_EQ(sv->apply_noise(model, rng), 3u);
  const auto amps = sv->amplitudes_copy();
  for (Index x = 0; x < 8; ++x) {
    const double sign = __builtin_popcountll(x) % 2 == 0 ? 1.0 : -1.0;
    EXPECT_NEAR(amps[x].real(), sign / std::sqrt(8.0), 1e-12) << "x=" << x;
  }
}

TEST(Noise, ProbabilityOneBitFlipPermutesBasis) {
  // X on every qubit maps |x> -> |~x>. H^n takes |psi0> to |0000>, then
  // X on qubits 1 and 2 prepares |0110>.
  const auto sv = uniform(4);
  for (unsigned q = 0; q < 4; ++q) {
    sv->apply_gate1(q, gates::H());
  }
  sv->apply_gate1(1, gates::X());
  sv->apply_gate1(2, gates::X());
  ASSERT_NEAR(sv->probability(0b0110), 1.0, 1e-12);
  Rng rng(3);
  const NoiseModel model{NoiseKind::kBitFlip, 1.0};
  sv->apply_noise(model, rng);
  EXPECT_NEAR(sv->probability(0b1001), 1.0, 1e-12);
}

TEST(Noise, InjectionRateMatchesProbability) {
  Rng rng(4);
  const NoiseModel model{NoiseKind::kDepolarizing, 0.3};
  std::uint64_t injected = 0;
  constexpr int kTrials = 3000;
  for (int t = 0; t < kTrials; ++t) {
    injected += uniform(4)->apply_noise(model, rng);
  }
  const double rate =
      static_cast<double>(injected) / (4.0 * kTrials);  // per qubit
  EXPECT_NEAR(rate, 0.3, 0.02);
}

TEST(Noise, PreservesNorm) {
  Rng rng(5);
  for (const auto kind : {NoiseKind::kDepolarizing, NoiseKind::kDephasing,
                          NoiseKind::kBitFlip}) {
    const auto sv = make_backend(BackendKind::kDense,
                                 BackendSpec::single_target(64, 1, 13));
    sv->apply_oracle();
    sv->apply_global_diffusion();
    const NoiseModel model{kind, 0.5};
    for (int i = 0; i < 10; ++i) {
      sv->apply_noise(model, rng);
    }
    EXPECT_NEAR(sv->norm_squared(), 1.0, 1e-10)
        << noise_kind_name(kind);
  }
}

TEST(Noise, RejectsInvalidProbability) {
  Rng rng(6);
  const NoiseModel model{NoiseKind::kBitFlip, 1.5};
  EXPECT_THROW(uniform(2)->apply_noise(model, rng), CheckFailure);
}

TEST(Noise, RejectsNegativeProbability) {
  // Regression: a negative p used to make every Bernoulli draw fail, so a
  // "noisy" run silently executed clean while being reported as noisy.
  Rng rng(6);
  const NoiseModel model{NoiseKind::kDepolarizing, -0.1};
  EXPECT_FALSE(model.valid());
  EXPECT_THROW(model.validate(), CheckFailure);

  const oracle::Database db = oracle::Database::with_qubits(6, 1);
  Rng rng2(7);
  EXPECT_THROW(partial::run_noisy_partial_search(db, 2, model, 10, rng2),
               CheckFailure);
  EXPECT_THROW(partial::run_noisy_full_search_block(db, 2, model, 10, rng2),
               CheckFailure);

  // The backend-level channel must also refuse, not read the model as
  // disabled and silently run clean.
  for (const auto kind : {BackendKind::kDense, BackendKind::kSymmetry}) {
    auto backend =
        make_backend(kind, BackendSpec::single_target(16, 2, 5));
    EXPECT_THROW(backend->apply_noise(model, rng), CheckFailure);
  }
}

TEST(Noise, InjectedCountsOnlyRealGateApplications) {
  // Regression: the injection counter used to increment before the channel
  // dispatch, so a kNone arm (or any non-applying path) could report
  // injections that never touched the state.
  Rng rng(8);
  const auto sv = uniform(3);
  EXPECT_EQ(sv->apply_noise(NoiseModel{NoiseKind::kNone, 1.0}, rng), 0u);
  EXPECT_LT(linf(*sv, *uniform(3)), 1e-15);

  // With p = 1 every qubit gets exactly one real Pauli: count == qubits and
  // the state moved (Z on the uniform state flips signs).
  const auto sv2 = uniform(4);
  EXPECT_EQ(sv2->apply_noise(NoiseModel{NoiseKind::kDephasing, 1.0}, rng),
            4u);
  EXPECT_GT(linf(*sv2, *uniform(4)), 0.1);

  // Same contract for both engines.
  auto backend = make_backend(BackendKind::kDense,
                              BackendSpec::single_target(16, 2, 5));
  EXPECT_EQ(backend->apply_noise(NoiseModel{NoiseKind::kNone, 1.0}, rng), 0u);
  EXPECT_EQ(backend->apply_noise(NoiseModel{NoiseKind::kBitFlip, 1.0}, rng),
            4u);
  auto sym = make_backend(BackendKind::kSymmetry,
                          BackendSpec::single_target(16, 2, 5));
  EXPECT_EQ(sym->apply_noise(NoiseModel{NoiseKind::kNone, 1.0}, rng), 0u);
  EXPECT_EQ(sym->apply_noise(NoiseModel{NoiseKind::kBitFlip, 1.0}, rng), 4u);
}

TEST(Noise, ParseNoiseKindRoundTrips) {
  EXPECT_EQ(parse_noise_kind("none"), NoiseKind::kNone);
  EXPECT_EQ(parse_noise_kind("depolarizing"), NoiseKind::kDepolarizing);
  EXPECT_EQ(parse_noise_kind("dephasing"), NoiseKind::kDephasing);
  EXPECT_EQ(parse_noise_kind("bitflip"), NoiseKind::kBitFlip);
  EXPECT_THROW(parse_noise_kind("gaussian"), CheckFailure);
}

TEST(Noise, BackendNoisePreservesNorm) {
  Rng rng(10);
  for (const auto kind : {BackendKind::kDense, BackendKind::kSymmetry}) {
    auto backend =
        make_backend(kind, BackendSpec::single_target(64, 4, 37));
    backend->apply_oracle();
    backend->apply_global_diffusion();
    for (int i = 0; i < 10; ++i) {
      backend->apply_noise(NoiseModel{NoiseKind::kDepolarizing, 0.5}, rng);
      backend->apply_oracle();
      backend->apply_block_diffusion();
    }
    EXPECT_NEAR(backend->norm_squared(), 1.0, 1e-9) << to_string(kind);
  }
}

TEST(Noise, KindNamesAreDistinct) {
  EXPECT_STRNE(noise_kind_name(NoiseKind::kDepolarizing),
               noise_kind_name(NoiseKind::kDephasing));
  EXPECT_STREQ(noise_kind_name(NoiseKind::kNone), "none");
}

TEST(NoisyPartial, QueriesPerTrialEqualsDatabaseMeterDelta) {
  // Regression: the drivers used to hand-roll query accounting (an explicit
  // add_queries(1) for Step 3 vs implicit counting inside the oracle), so
  // nothing tied the reported queries_per_trial to the meter. Now each
  // trial counts its queries locally, every trial must agree, and the
  // meter advances by exactly trials * queries_per_trial.
  const oracle::Database db = oracle::Database::with_qubits(9, 100);
  Rng rng(77);
  for (const auto backend : {BackendKind::kDense, BackendKind::kSymmetry}) {
    partial::NoisyOptions options;
    options.backend = backend;
    const NoiseModel model{NoiseKind::kDepolarizing, 0.01};

    db.reset_queries();
    const auto part =
        partial::run_noisy_partial_search(db, 2, model, 37, rng, options);
    EXPECT_EQ(db.queries(), 37u * part.queries_per_trial);

    db.reset_queries();
    const auto full =
        partial::run_noisy_full_search_block(db, 2, model, 23, rng, options);
    EXPECT_EQ(db.queries(), 23u * full.queries_per_trial);
    EXPECT_EQ(full.queries_per_trial, grover_optimal_iterations(db.size()));
  }
}

TEST(NoisyPartial, ZeroNoiseMatchesCleanSuccess) {
  Rng rng(7);
  const oracle::Database db = oracle::Database::with_qubits(8, 99);
  const NoiseModel none;
  const auto result =
      partial::run_noisy_partial_search(db, 2, none, 200, rng);
  // Clean block probability at n=8 with the default floor is >= 0.75; the
  // sampled rate should be in that ballpark.
  EXPECT_GT(result.success_rate, 0.7);
  EXPECT_EQ(result.mean_injected, 0.0);
}

TEST(NoisyPartial, SuccessDecreasesWithNoise) {
  Rng rng(8);
  const oracle::Database db = oracle::Database::with_qubits(8, 99);
  const auto clean = partial::run_noisy_partial_search(
      db, 2, NoiseModel{}, 150, rng);
  const auto noisy = partial::run_noisy_partial_search(
      db, 2, NoiseModel{NoiseKind::kDepolarizing, 0.02}, 150, rng);
  const auto very_noisy = partial::run_noisy_partial_search(
      db, 2, NoiseModel{NoiseKind::kDepolarizing, 0.2}, 150, rng);
  EXPECT_GT(clean.success_rate, noisy.success_rate - 0.08);
  EXPECT_GT(noisy.success_rate, very_noisy.success_rate);
  // Heavy depolarizing drives the block answer toward uniform (1/K = 1/4).
  EXPECT_LT(very_noisy.success_rate, 0.6);
  EXPECT_GT(very_noisy.mean_injected, clean.mean_injected);
}

TEST(NoisyPartial, PartialDegradesSlowerThanFullAtEqualPerQueryNoise) {
  // Partial search runs fewer queries, so fewer noise points: for the same
  // block question it should retain accuracy at least as well.
  Rng rng(9);
  const oracle::Database db = oracle::Database::with_qubits(10, 700);
  const NoiseModel model{NoiseKind::kDepolarizing, 0.01};
  const auto partial_run =
      partial::run_noisy_partial_search(db, 2, model, 600, rng);
  const auto full_run =
      partial::run_noisy_full_search_block(db, 2, model, 600, rng);
  EXPECT_LT(partial_run.queries_per_trial, full_run.queries_per_trial);
  EXPECT_GT(partial_run.success_rate, full_run.success_rate - 0.1);
}

}  // namespace
}  // namespace pqs::qsim
