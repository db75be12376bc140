#include "qsim/circuit.h"

#include <gtest/gtest.h>

#include <memory>

#include "common/check.h"
#include "common/math.h"
#include "qsim/backend.h"
#include "reference_kernels.h"

namespace pqs::qsim {
namespace {

/// A dense backend over 2^n items, K blocks, target t, in |psi0>.
std::unique_ptr<Backend> dense(unsigned n, std::uint64_t k_blocks, Index t) {
  return make_backend(BackendKind::kDense,
                      BackendSpec::single_target(pow2(n), k_blocks, t));
}

double linf(const Backend& a, const Backend& b) {
  return reference::linf_distance(a.amplitudes_copy(), b.amplitudes_copy());
}

TEST(Circuit, QueryCountCountsOracleOpsOnly) {
  Circuit c(4);
  c.hadamard_all().oracle().global_diffusion().oracle_phase(0.5).gate1(
      0, gates::X());
  c.non_target_mean_reflection();
  EXPECT_EQ(c.query_count(), 3u);
}

TEST(Circuit, GroverIterationIsOneQuery) {
  Circuit c(4);
  c.grover_iteration();
  EXPECT_EQ(c.query_count(), 1u);
  EXPECT_EQ(c.size(), 2u);  // oracle + diffusion
}

TEST(Circuit, ApplyMatchesManualEvolution) {
  Circuit c(5);
  for (int i = 0; i < 4; ++i) {
    c.grover_iteration();
  }
  const auto circuit_state = dense(5, 1, 11);
  const auto queries = apply_circuit(*circuit_state, c);
  EXPECT_EQ(queries, 4u);

  const auto manual = dense(5, 1, 11);
  for (int i = 0; i < 4; ++i) {
    manual->apply_oracle();
    manual->apply_global_diffusion();
  }
  EXPECT_LT(linf(*circuit_state, *manual), 1e-12);
}

TEST(Circuit, MakeGroverCircuitMatchesBuilder) {
  const auto a = make_grover_circuit(4, 3);
  Circuit b(4);
  for (int i = 0; i < 3; ++i) {
    b.grover_iteration();
  }
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.query_count(), b.query_count());
}

TEST(Circuit, PartialIterationUsesBlockDiffusion) {
  Circuit c(6);
  c.partial_iteration(2);
  const auto state = dense(6, 4, 33);
  apply_circuit(*state, c);

  const auto manual = dense(6, 4, 33);
  manual->apply_oracle();
  manual->apply_block_diffusion();
  EXPECT_LT(linf(*state, *manual), 1e-12);
}

TEST(Circuit, GateLevelDiffusionEqualsFusedKernel) {
  // Prepare an arbitrary state by a few gates (on top of |psi0> = H^n|0>),
  // then compare both diffusion realizations.
  Circuit prep(5);
  prep.gate1(1, gates::T()).gate1(3, gates::Ry(0.6));

  Circuit fused = prep;
  fused.global_diffusion();
  const auto a = dense(5, 1, 7);
  apply_circuit(*a, fused);

  Circuit gates_only(5);
  gates_only.global_diffusion_gate_level();
  const auto b = dense(5, 1, 7);
  apply_circuit(*b, prep);
  apply_circuit(*b, gates_only);

  EXPECT_LT(linf(*a, *b), 1e-12);
  EXPECT_EQ(gates_only.query_count(), 0u);
}

TEST(Circuit, QubitCountMismatchRejected) {
  Circuit c(3);
  c.grover_iteration();
  const auto wrong = dense(4, 1, 0);
  EXPECT_THROW(apply_circuit(*wrong, c), CheckFailure);
}

TEST(Circuit, NonTargetMeanOpUsesTheBackendTarget) {
  const auto state = dense(3, 1, 5);
  state->apply_oracle();
  auto manual = state->amplitudes_copy();
  apply_op(*state, NonTargetMeanOp{});
  reference::reflect_non_target_about_their_mean(manual, 5);
  EXPECT_LT(reference::linf_distance(state->amplitudes_copy(), manual),
            1e-12);
}

TEST(Circuit, BlockOpsMustMatchTheBackendBlocks) {
  Circuit c(4);
  c.partial_iteration(2);
  const auto two_blocks = dense(4, 2, 3);
  EXPECT_THROW(apply_circuit(*two_blocks, c), CheckFailure);
  const auto four_blocks = dense(4, 4, 3);
  EXPECT_EQ(apply_circuit(*four_blocks, c), 1u);
}

TEST(Circuit, ToStringListsOps) {
  Circuit c(4);
  c.grover_iteration().partial_iteration(2);
  const std::string s = c.to_string();
  EXPECT_NE(s.find("Oracle(It)"), std::string::npos);
  EXPECT_NE(s.find("I0"), std::string::npos);
  EXPECT_NE(s.find("blocks k=2"), std::string::npos);
  EXPECT_NE(s.find("queries=2"), std::string::npos);
}

TEST(Circuit, OpNameCoversAllVariants) {
  EXPECT_EQ(op_name(OracleOp{}), "Oracle(It)");
  EXPECT_EQ(op_name(GlobalDiffusionOp{}), "I0");
  EXPECT_EQ(op_name(NonTargetMeanOp{}), "NonTargetMeanReflect");
  EXPECT_NE(op_name(Gate1Op{0, gates::H()}).find("H"), std::string::npos);
  EXPECT_NE(op_name(MczOp{7}).find("MCZ"), std::string::npos);
}

TEST(Circuit, BlockDiffusionValidatesK) {
  Circuit c(4);
  EXPECT_THROW(c.block_diffusion(0), CheckFailure);
  EXPECT_THROW(c.block_diffusion(4), CheckFailure);
  EXPECT_NO_THROW(c.block_diffusion(3));
}

}  // namespace
}  // namespace pqs::qsim
