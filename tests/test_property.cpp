// Randomized property tests across the simulator and algorithm layers:
// invariants that must hold for EVERY circuit / state / shape, checked on
// randomly generated instances with fixed seeds.
#include <gtest/gtest.h>

#include <cmath>

#include "common/math.h"
#include "common/random.h"
#include "grover/grover.h"
#include "oracle/database.h"
#include "partial/analytic.h"
#include "partial/grk.h"
#include "partial/optimizer.h"
#include "qsim/backend.h"
#include "qsim/circuit.h"
#include "qsim/kernels.h"
#include "reference_kernels.h"

namespace pqs {
namespace {

using qsim::Amplitude;
using qsim::SoaVector;
namespace kernels = qsim::kernels;
namespace reference = qsim::reference;

qsim::Pauli random_pauli(Rng& rng) {
  return static_cast<qsim::Pauli>(rng.uniform_below(3));
}

class RandomCircuitProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(RandomCircuitProperty, NormIsPreservedByAnyOpSequence) {
  const unsigned n = 6;
  Rng rng(10'000 + GetParam());
  SoaVector state = reference::uniform_state(n);
  const qsim::Index target = rng.uniform_below(pow2(n));
  for (int step = 0; step < 60; ++step) {
    switch (rng.uniform_below(6)) {
      case 0:
        kernels::apply_pauli(state, n,
                             static_cast<unsigned>(rng.uniform_below(n)),
                             random_pauli(rng));
        break;
      case 1:
        kernels::phase_flip_index(state, target);
        break;
      case 2:
        kernels::reflect_about_uniform(state);
        break;
      case 3:
        kernels::reflect_blocks_about_uniform(
            state,
            pow2(n) >> (1 + static_cast<unsigned>(rng.uniform_below(n - 1))));
        break;
      case 4: {
        const unsigned k =
            1 + static_cast<unsigned>(rng.uniform_below(n - 1));
        kernels::rotate_blocks_about_uniform(state, pow2(n) >> k,
                                             rng.uniform(0.0, 2.0 * kPi));
        break;
      }
      case 5:
        kernels::reflect_non_target_about_their_mean(state, target);
        break;
    }
    ASSERT_NEAR(kernels::norm_squared(state), 1.0, 1e-9) << "step " << step;
  }
}

TEST_P(RandomCircuitProperty, ReflectionsAreInvolutions) {
  const unsigned n = 5;
  Rng rng(20'000 + GetParam());
  SoaVector state = reference::random_state(n, rng);
  const SoaVector before = state;

  const unsigned k = 1 + static_cast<unsigned>(rng.uniform_below(n - 1));
  const qsim::Index t = rng.uniform_below(pow2(n));
  kernels::reflect_blocks_about_uniform(state, pow2(n) >> k);
  kernels::reflect_blocks_about_uniform(state, pow2(n) >> k);
  kernels::reflect_non_target_about_their_mean(state, t);
  kernels::reflect_non_target_about_their_mean(state, t);
  kernels::phase_flip_index(state, t);
  kernels::phase_flip_index(state, t);
  const auto q = static_cast<unsigned>(rng.uniform_below(n));
  const qsim::Pauli p = random_pauli(rng);
  kernels::apply_pauli(state, n, q, p);
  kernels::apply_pauli(state, n, q, p);
  EXPECT_LT(reference::linf_distance(state, before), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCircuitProperty,
                         ::testing::Range(0u, 8u));

TEST(ModelInvariance, TargetPositionWithinBlockIsIrrelevant) {
  // The subspace model has no notion of WHERE in its block the target is;
  // the state vector must agree: all placements give identical block
  // probabilities after any (l1, l2).
  const unsigned n = 8, k = 2;
  double reference = -1.0;
  for (const qsim::Index offset : {0u, 1u, 31u, 63u}) {
    const oracle::Database db =
        oracle::Database::with_qubits(n, (2u << (n - k)) + offset);
    const auto state = partial::evolve_partial_search_on_backend(
        db, k, 7, 3, qsim::BackendKind::kDense);
    const double p = state->block_probability(2);
    if (reference < 0.0) {
      reference = p;
    } else {
      ASSERT_NEAR(p, reference, 1e-12) << "offset " << offset;
    }
  }
}

TEST(ModelInvariance, TargetBlockIdentityIsIrrelevant) {
  const unsigned n = 8, k = 3;
  double reference = -1.0;
  for (qsim::Index block = 0; block < 8; ++block) {
    const oracle::Database db =
        oracle::Database::with_qubits(n, (block << (n - k)) + 5);
    const auto state = partial::evolve_partial_search_on_backend(
        db, k, 6, 2, qsim::BackendKind::kDense);
    const double p = state->block_probability(block);
    if (reference < 0.0) {
      reference = p;
    } else {
      ASSERT_NEAR(p, reference, 1e-12) << "block " << block;
    }
  }
}

TEST(QueryMeter, EveryAlgorithmPathChargesTheSameMeter) {
  // Query accounting must be consistent whether ops run via an algorithm
  // entry point or via Circuit execution + manual add_queries.
  const unsigned n = 6;
  Rng rng(4242);
  const oracle::Database db = oracle::Database::with_qubits(n, 9);

  db.reset_queries();
  grover::evolve_on_backend(db, 7, qsim::BackendKind::kDense);
  EXPECT_EQ(db.queries(), 7u);

  db.reset_queries();
  const auto circuit = qsim::make_grover_circuit(n, 7);
  const auto state = qsim::make_backend(
      qsim::BackendKind::kDense,
      qsim::BackendSpec::single_target(db.size(), 1, db.target()));
  db.add_queries(qsim::apply_circuit(*state, circuit));
  EXPECT_EQ(db.queries(), 7u);

  db.reset_queries();
  partial::evolve_partial_search_on_backend(db, 2, 4, 2,
                                            qsim::BackendKind::kDense);
  EXPECT_EQ(db.queries(), 7u);
}

}  // namespace
}  // namespace pqs
