// Cross-module integration tests: the different realizations of the same
// mathematics (dense kernels, gate-level circuits, the 3-D subspace
// model, closed forms) must all agree, and the end-to-end pipelines must
// compose.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/math.h"
#include "common/random.h"
#include "grover/exact.h"
#include "grover/grover.h"
#include "oracle/database.h"
#include "oracle/merit_list.h"
#include "partial/analytic.h"
#include "partial/bounds.h"
#include "partial/certainty.h"
#include "partial/grk.h"
#include "partial/optimizer.h"
#include "qsim/backend.h"
#include "qsim/circuit.h"
#include "qsim/kernels.h"
#include "reduction/reduction.h"
#include "reference_kernels.h"
#include "zalka/zalka.h"

namespace pqs {
namespace {

class ModelVsDense
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(ModelVsDense, AgreeAtEveryStepOfTheAlgorithm) {
  // The strongest consistency check in the library: evolve the full
  // dense state and the 3-D model through the identical op sequence and
  // compare all three invariant-subspace amplitudes after every operation.
  const auto [n, k] = GetParam();
  const std::uint64_t n_items = pow2(n);
  const std::uint64_t k_blocks = pow2(k);
  const qsim::Index target = n_items / 2 + 3;  // block K/2

  const partial::SubspaceModel model(n_items, k_blocks);

  const auto state = qsim::make_backend(
      qsim::BackendKind::kDense,
      qsim::BackendSpec::single_target(n_items, k_blocks, target));
  auto s = model.uniform_start();

  const auto check_agreement = [&](const char* where) {
    const auto amps = state->amplitudes_copy();
    // a_t.
    ASSERT_LT(std::abs(amps[target] - s.a_t), 1e-10) << where;
    // a_b via a representative target-block non-target state.
    const double w_b = model.weight_target_rest();
    ASSERT_LT(std::abs(amps[target + 1] - s.a_b / w_b), 1e-10) << where;
    // a_o via a representative non-target-block state.
    const double w_o = model.weight_non_target();
    ASSERT_LT(std::abs(amps[0] - s.a_o / w_o), 1e-10) << where;
  };

  check_agreement("start");
  for (int i = 0; i < 12; ++i) {
    state->apply_oracle();
    state->apply_global_diffusion();
    s = model.apply_global(s);
    check_agreement("global");
  }
  for (int i = 0; i < 6; ++i) {
    state->apply_oracle();
    state->apply_block_diffusion();
    s = model.apply_local(s);
    check_agreement("local");
  }
  // A generalized local iteration with arbitrary phases.
  state->apply_oracle_phase(0.83);
  state->apply_block_rotation(2.31);
  s = model.apply_local_generalized(s, 0.83, 2.31);
  check_agreement("generalized");
  // Step 3.
  state->apply_step3();
  s = model.apply_step3(s);
  check_agreement("step3");
}

INSTANTIATE_TEST_SUITE_P(Shapes, ModelVsDense,
                         ::testing::Values(std::tuple{4u, 1u},
                                           std::tuple{6u, 2u},
                                           std::tuple{8u, 3u},
                                           std::tuple{10u, 2u},
                                           std::tuple{10u, 5u},
                                           std::tuple{12u, 4u}));

TEST(Integration, GateLevelGrkMatchesKernelGrk) {
  // Run the entire partial-search pipeline once with fused kernels and once
  // with the gate-level diffusion decompositions.
  const unsigned n = 8, k = 2;
  const std::uint64_t l1 = 6, l2 = 3;

  auto kernel_state = qsim::reference::uniform_state(n);
  auto gate_state = qsim::reference::uniform_state(n);
  for (std::uint64_t i = 0; i < l1; ++i) {
    qsim::kernels::phase_flip_index(kernel_state, 55);
    qsim::kernels::reflect_about_uniform(kernel_state);
    qsim::kernels::phase_flip_index(gate_state, 55);
    qsim::reference::apply_global_diffusion_gate_level(gate_state);
  }
  for (std::uint64_t i = 0; i < l2; ++i) {
    qsim::kernels::phase_flip_index(kernel_state, 55);
    qsim::kernels::reflect_blocks_about_uniform(kernel_state,
                                                pow2(n - k));
    qsim::kernels::phase_flip_index(gate_state, 55);
    qsim::reference::apply_block_diffusion_gate_level(gate_state, k);
  }
  qsim::kernels::reflect_non_target_about_their_mean(kernel_state, 55);
  qsim::kernels::reflect_non_target_about_their_mean(gate_state, 55);
  EXPECT_LT(qsim::reference::linf_distance(kernel_state, gate_state), 1e-11);
}

TEST(Integration, CircuitIrReproducesGrkEvolution) {
  const unsigned n = 9, k = 3;
  const oracle::Database db = oracle::Database::with_qubits(n, 300);
  const std::uint64_t l1 = 10, l2 = 4;

  qsim::Circuit circuit(n);
  for (std::uint64_t i = 0; i < l1; ++i) {
    circuit.grover_iteration();
  }
  for (std::uint64_t i = 0; i < l2; ++i) {
    circuit.partial_iteration(k);
  }
  circuit.non_target_mean_reflection();

  const auto circuit_state = qsim::make_backend(
      qsim::BackendKind::kDense,
      qsim::BackendSpec::single_target(db.size(), pow2(k), db.target()));
  const auto queries = qsim::apply_circuit(*circuit_state, circuit);
  EXPECT_EQ(queries, l1 + l2 + 1);

  const auto direct = partial::evolve_partial_search_on_backend(
      db, k, l1, l2, qsim::BackendKind::kDense);
  EXPECT_LT(qsim::reference::linf_distance(circuit_state->amplitudes_copy(),
                                           direct->amplitudes_copy()),
            1e-11);
}

TEST(Integration, PartialPlusSuffixSearchRecoversFullTarget) {
  // Partial search tells us the block; a full search restricted to that
  // block finds the rest — and the total stays below a direct full search
  // experience... total query check included.
  Rng rng(321);
  const unsigned n = 12, k = 4;
  const qsim::Index target = 3210;
  const oracle::Database db = oracle::Database::with_qubits(n, target);

  const auto part = partial::run_partial_search_certain(db, k, rng);
  ASSERT_TRUE(part.correct);

  // Suffix database: the low n-k bits within the found block.
  const oracle::Database suffix_db(pow2(n - k), target & (pow2(n - k) - 1));
  const auto rest = grover::search_exact(suffix_db, rng);
  ASSERT_TRUE(rest.correct);

  const qsim::Index reconstructed =
      (part.measured_block << (n - k)) | rest.measured;
  EXPECT_EQ(reconstructed, target);
}

TEST(Integration, SavingsOrderingAcrossAllMethods) {
  // At n = 16: lower bound <= certainty partial <= plain-optimal partial
  // cannot be guaranteed pointwise, but all partial variants must beat full
  // search, which must beat every classical count.
  const unsigned n = 16;
  const std::uint64_t n_items = pow2(n);
  const std::uint64_t k_blocks = 4;

  const auto partial_opt = partial::optimize_integer(
      n_items, k_blocks, partial::default_min_success(n_items));
  const auto certain = partial::certainty_schedule(n_items, k_blocks);
  const auto full_exact = grover::exact_query_count(n_items);
  const double classical =
      partial::classical_partial_randomized_paper(n_items, k_blocks);

  EXPECT_LT(partial_opt.queries, full_exact);
  EXPECT_LT(certain.queries, full_exact);
  EXPECT_LT(static_cast<double>(full_exact), classical);
}

TEST(Integration, ZalkaFloorConsistentWithPartialLowerBound) {
  // Theorem 2 machinery end-to-end at small scale: the measured zero-error
  // reduction total, divided by the geometric factor, lower-bounds the
  // per-level partial-search cost the way the proof requires.
  Rng rng(654);
  const unsigned n = 12;
  const std::uint64_t k_blocks = 4;
  const std::uint64_t n_items = pow2(n);

  const oracle::Database db = oracle::Database::with_qubits(n, 1000);
  const auto reduction_run =
      reduction::search_full_via_partial(db, 2, rng);
  ASSERT_TRUE(reduction_run.correct);

  // total >= (pi/4) sqrt(N) (1 - o(1)) must transfer a floor to the top
  // level: top-level queries >= total - (everything below), and the
  // geometric sum of the lower levels is <= total/sqrt(K) + O(sqrt(N/K)).
  const double sqrt_n = std::sqrt(static_cast<double>(n_items));
  const double top_coeff =
      static_cast<double>(reduction_run.levels.front().queries) / sqrt_n;
  EXPECT_GT(top_coeff,
            partial::lower_bound_coefficient(k_blocks) - 0.12);
}

TEST(Integration, EndToEndMeritListScenario) {
  // The intro example as a full pipeline on the library's public API.
  Rng rng(777);
  const oracle::MeritList list(pow2(10), /*seed=*/2024);
  const std::string student = list.name_at_rank(700);

  const oracle::Database db = list.database_for(student);
  const auto result = partial::run_partial_search_certain(db, 2, rng);
  ASSERT_TRUE(result.correct);
  // Rank 700 of 1024 -> third quartile = block 2.
  EXPECT_EQ(result.measured_block, 2u);
  EXPECT_EQ(oracle::MeritList::fraction_label(result.measured_block, 4),
            "50%-75% band");
  EXPECT_LT(db.queries(), grover::optimal_iterations(db.size()));
}

}  // namespace
}  // namespace pqs
