#include "grover/amplitude_amplification.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/math.h"
#include "grover/grover.h"
#include "oracle/database.h"
#include "qsim/kernels.h"
#include "reference_kernels.h"

namespace pqs::grover {
namespace {

// Gate-level Q = -A S0 A^{-1} S_t for an arbitrary preparation A.
using qsim::SoaVector;
using qsim::reference::amplification_step;
using qsim::reference::amplify;
using qsim::reference::hadamard_preparation;
using qsim::reference::initial_success_probability;
using qsim::reference::marked_probability;
using qsim::reference::Preparation;

TEST(AmplitudeAmplification, HadamardPreparationReducesToGrover) {
  // Q = -A S0 A^{-1} St with A = H^(x)n must equal the Grover iteration
  // I0 . It, state for state.
  const unsigned n = 6;
  const oracle::MarkedDatabase multi(pow2(n), {23});
  const oracle::Database single = oracle::Database::with_qubits(n, 23);

  const auto amplified = amplify(n, hadamard_preparation(), multi, 5);
  const auto grover_state =
      evolve_on_backend(single, 5, qsim::BackendKind::kDense);
  EXPECT_LT(qsim::reference::linf_distance(amplified.to_amplitudes(),
                                           grover_state->amplitudes_copy()),
            1e-12);
}

TEST(AmplitudeAmplification, ClosedFormMatchesSimulation) {
  const unsigned n = 8;
  const oracle::MarkedDatabase db(pow2(n), {1, 100, 200});
  const auto prep = hadamard_preparation();
  const double a = initial_success_probability(n, prep, db);
  EXPECT_NEAR(a, 3.0 / 256.0, 1e-12);

  for (std::uint64_t j = 0; j <= 8; ++j) {
    const auto state = amplify(n, prep, db, j);
    ASSERT_NEAR(marked_probability(state, db),
                amplified_success_probability(a, j), 1e-10)
        << "j=" << j;
  }
}

TEST(AmplitudeAmplification, WorksWithNonHadamardPreparation) {
  // A = layer of Ry rotations: a biased but valid preparation.
  const unsigned n = 5;
  const auto apply = [n](SoaVector& state) {
    for (unsigned q = 0; q < n; ++q) {
      qsim::reference::apply_gate1(state, q, qsim::reference::ry(0.9));
    }
  };
  const auto unapply = [n](SoaVector& state) {
    for (unsigned q = 0; q < n; ++q) {
      qsim::reference::apply_gate1(state, q, qsim::reference::ry(-0.9));
    }
  };
  const Preparation prep{apply, unapply};
  const oracle::MarkedDatabase db(pow2(n), {7});

  const double a = initial_success_probability(n, prep, db);
  ASSERT_GT(a, 0.0);
  for (std::uint64_t j = 1; j <= 4; ++j) {
    const auto state = amplify(n, prep, db, j);
    ASSERT_NEAR(std::norm(state.get(7)), amplified_success_probability(a, j),
                1e-10)
        << "j=" << j;
  }
}

TEST(AmplitudeAmplification, StepPreservesNorm) {
  const unsigned n = 6;
  const oracle::MarkedDatabase db(pow2(n), {10, 20});
  auto state = qsim::reference::uniform_state(n);
  const auto prep = hadamard_preparation();
  for (int i = 0; i < 10; ++i) {
    amplification_step(state, prep, db);
  }
  EXPECT_NEAR(qsim::kernels::norm_squared(state), 1.0, 1e-11);
}

TEST(AmplitudeAmplification, QueryMeterAdvancesOncePerStep) {
  const unsigned n = 4;
  const oracle::MarkedDatabase db(pow2(n), {3});
  amplify_uniform_on_backend(db, 7, qsim::BackendKind::kDense);
  EXPECT_EQ(db.queries(), 7u);
}

TEST(AmplitudeAmplification, ClosedFormValidatesProbability) {
  EXPECT_THROW(amplified_success_probability(-0.1, 1), CheckFailure);
  EXPECT_THROW(amplified_success_probability(1.1, 1), CheckFailure);
  EXPECT_NEAR(amplified_success_probability(1.0, 0), 1.0, 1e-15);
}

}  // namespace
}  // namespace pqs::grover
