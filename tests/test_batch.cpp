// Tests for the batched shot-execution layer: deterministic per-shot RNG
// streams (thread-count independent), tallying, and the shot wrappers over
// both engines.
#include "qsim/batch.h"

#include <gtest/gtest.h>

#include <string>

#include "common/math.h"
#include "grover/grover.h"
#include "oracle/database.h"
#include "qsim/backend.h"

namespace pqs::qsim {
namespace {

TEST(BatchRunnerTest, OutcomesAreIndependentOfThreadCount) {
  const oracle::Database db = oracle::Database::with_qubits(8, 17);
  const auto state = grover::evolve_on_backend(
      db, grover::optimal_iterations(pow2(8)), BackendKind::kDense);
  const auto sampler = state->sampler(Measure::kIndex);
  const BatchRunner serial({.threads = 1, .seed = 99});
  const BatchRunner parallel({.threads = 4, .seed = 99});
  const auto body = [&sampler](std::uint64_t, Rng& rng) {
    return sampler->draw(rng);
  };
  EXPECT_EQ(serial.map_shots(500, body), parallel.map_shots(500, body));
}

TEST(BatchRunnerTest, DistinctSeedsGiveDistinctStreams) {
  const BatchRunner a({.threads = 1, .seed = 1});
  const BatchRunner b({.threads = 1, .seed = 2});
  const auto body = [](std::uint64_t, Rng& rng) {
    return static_cast<Index>(rng.uniform_below(1u << 20));
  };
  EXPECT_NE(a.map_shots(64, body), b.map_shots(64, body));
}

TEST(BatchRunnerTest, ShotStreamsAreDecorrelated) {
  const BatchRunner runner({.threads = 1, .seed = 5});
  Rng r0 = runner.shot_rng(0);
  Rng r1 = runner.shot_rng(1);
  int equal = 0;
  for (int i = 0; i < 16; ++i) {
    equal += r0.next() == r1.next() ? 1 : 0;
  }
  EXPECT_EQ(equal, 0);
}

TEST(BatchRunnerTest, TallyCountsAndModeWithTieBreak) {
  const std::vector<Index> outcomes{3, 1, 3, 1, 2};
  const auto report = BatchRunner::tally(outcomes, 7);
  EXPECT_EQ(report.shots, 5u);
  EXPECT_EQ(report.queries_per_shot, 7u);
  EXPECT_EQ(report.counts.at(1), 2u);
  EXPECT_EQ(report.counts.at(3), 2u);
  EXPECT_EQ(report.counts.at(2), 1u);
  EXPECT_EQ(report.mode, 1u);  // tie resolves to the smallest outcome
  EXPECT_NEAR(report.mode_frequency, 0.4, 1e-12);
}

TEST(BatchRunnerTest, SampleShotsAgreeBetweenEngines) {
  const unsigned n = 8;
  const oracle::Database db = oracle::Database::with_qubits(n, 200);
  const std::uint64_t iters = grover::optimal_iterations(pow2(n));
  const auto dense = grover::evolve_on_backend(db, iters, BackendKind::kDense);
  const auto symmetry =
      grover::evolve_on_backend(db, iters, BackendKind::kSymmetry);
  const BatchRunner runner({.threads = 2, .seed = 31337});
  const auto via_dense = runner.sample_shots(*dense, 300, iters);
  const auto via_symmetry = runner.sample_shots(*symmetry, 300, iters);
  EXPECT_EQ(via_dense.mode, 200u);
  EXPECT_EQ(via_symmetry.mode, 200u);
  EXPECT_GT(via_dense.mode_frequency, 0.95);
  EXPECT_GT(via_symmetry.mode_frequency, 0.95);
}

TEST(BatchRunnerTest, CircuitBlockShotsMatchAcrossEngines) {
  const unsigned n = 8, k = 2;
  Circuit circuit(n);
  for (int i = 0; i < 8; ++i) {
    circuit.grover_iteration();
  }
  const BackendSpec spec = BackendSpec::single_target(pow2(n), pow2(k), 200);
  const auto dense = make_backend(BackendKind::kDense, spec);
  const auto symmetry = make_backend(BackendKind::kSymmetry, spec);
  apply_circuit(*dense, circuit);
  apply_circuit(*symmetry, circuit);
  const BatchRunner runner({.seed = 6});
  const auto dense_report = runner.sample_block_shots(*dense, 400, 8);
  const auto sym_report = runner.sample_block_shots(*symmetry, 400, 8);
  EXPECT_EQ(dense_report.mode, 200u >> (n - k));
  EXPECT_EQ(sym_report.mode, dense_report.mode);
  EXPECT_EQ(sym_report.shots, 400u);
}

TEST(BatchRunnerTest, ThreadCountDoesNotChangeShotCounts) {
  const oracle::Database db = oracle::Database::with_qubits(7, 100);
  const auto state = grover::evolve_on_backend(db, 6, BackendKind::kDense);
  const BatchRunner one({.threads = 1, .seed = 42});
  const BatchRunner many({.threads = 8, .seed = 42});
  EXPECT_EQ(one.sample_shots(*state, 300, 6).counts,
            many.sample_shots(*state, 300, 6).counts);
}

TEST(BatchRunnerTest, NoisyTrajectoriesAreSeedReproducible) {
  // One trajectory per shot: 4 Grover iterations with depolarizing noise
  // after every oracle call, then one full measurement.
  const NoiseModel noise{NoiseKind::kDepolarizing, 0.05};
  const auto trajectory = [&noise](std::uint64_t, Rng& rng) {
    const auto state = make_backend(BackendKind::kDense,
                                    BackendSpec::single_target(64, 1, 20));
    for (int i = 0; i < 4; ++i) {
      state->apply_oracle();
      state->apply_noise(noise, rng);
      state->apply_global_diffusion();
    }
    return state->sample(rng);
  };
  const BatchRunner a({.threads = 1, .seed = 9});
  const BatchRunner b({.threads = 4, .seed = 9});
  EXPECT_EQ(BatchRunner::tally(a.map_shots(100, trajectory), 4).counts,
            BatchRunner::tally(b.map_shots(100, trajectory), 4).counts);
}

}  // namespace
}  // namespace pqs::qsim
