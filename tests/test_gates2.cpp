#include "qsim/gates2.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/check.h"
#include "common/math.h"
#include "common/random.h"
#include "qsim/isa.h"
#include "qsim/kernels.h"
#include "qsim/state_vector.h"
#include "reference_kernels.h"

namespace pqs::qsim {
namespace {

std::vector<Amplitude> random_amps(unsigned n_qubits, Rng& rng) {
  std::vector<Amplitude> amps(pow2(n_qubits));
  for (auto& a : amps) {
    a = Amplitude{rng.normal(), rng.normal()};
  }
  return amps;
}

StateVector random_state(unsigned n_qubits, Rng& rng) {
  StateVector sv = StateVector::from_amplitudes(random_amps(n_qubits, rng));
  sv.normalize();
  return sv;
}

class NamedGate4Test : public ::testing::TestWithParam<Gate4> {};

TEST_P(NamedGate4Test, IsUnitary) {
  EXPECT_LT(GetParam().unitarity_defect(), 1e-12) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    TwoQubitGates, NamedGate4Test,
    ::testing::Values(gates::II(), gates::CNOT(), gates::CZ(),
                      gates::CPhase(0.7), gates::SWAP(), gates::ISWAP(),
                      gates::tensor(gates::H(), gates::T())),
    [](const ::testing::TestParamInfo<Gate4>& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) {
          c = '_';
        }
      }
      return name + "_" + std::to_string(info.index);
    });

TEST(Gate4, CnotTruthTable) {
  // |10> -> |11>, |11> -> |10>, |0x> fixed (high qubit is the control).
  StateVector sv = StateVector::basis(2, 2);  // |10>: control (qubit 1) set
  sv.apply_gate2(/*q_high=*/1, /*q_low=*/0, gates::CNOT());
  EXPECT_NEAR(std::abs(sv.amplitude(3)), 1.0, 1e-12);

  sv = StateVector::basis(2, 1);  // |01>: control clear
  sv.apply_gate2(1, 0, gates::CNOT());
  EXPECT_NEAR(std::abs(sv.amplitude(1)), 1.0, 1e-12);
}

TEST(Gate4, CnotMatchesControlledGate1Kernel) {
  Rng rng(11);
  StateVector a = random_state(5, rng);
  StateVector b = a;
  a.apply_gate2(/*q_high=*/3, /*q_low=*/1, gates::CNOT());
  b.apply_controlled_gate1(/*control_mask=*/1u << 3, 1, gates::X());
  EXPECT_LT(a.linf_distance(b), 1e-12);
}

TEST(Gate4, CzIsSymmetricInItsQubits) {
  Rng rng(13);
  StateVector a = random_state(4, rng);
  StateVector b = a;
  a.apply_gate2(2, 0, gates::CZ());
  b.apply_gate2(0, 2, gates::CZ());
  EXPECT_LT(a.linf_distance(b), 1e-12);
}

TEST(Gate4, SwapExchangesQubitValues) {
  StateVector sv = StateVector::basis(3, 0b001);
  sv.apply_gate2(/*q_high=*/2, /*q_low=*/0, gates::SWAP());
  EXPECT_NEAR(std::abs(sv.amplitude(0b100)), 1.0, 1e-12);
}

TEST(Gate4, SwapEqualsThreeCnots) {
  Rng rng(17);
  StateVector a = random_state(4, rng);
  StateVector b = a;
  a.apply_gate2(3, 1, gates::SWAP());
  b.apply_gate2(3, 1, gates::CNOT());
  b.apply_gate2(1, 3, gates::CNOT());
  b.apply_gate2(3, 1, gates::CNOT());
  EXPECT_LT(a.linf_distance(b), 1e-12);
}

TEST(Gate4, CPhaseAtPiIsCz) {
  EXPECT_LT(gates::CPhase(kPi).distance(gates::CZ()), 1e-12);
}

TEST(Gate4, TensorActsIndependently) {
  Rng rng(19);
  StateVector a = random_state(4, rng);
  StateVector b = a;
  a.apply_gate2(3, 0, gates::tensor(gates::H(), gates::T()));
  b.apply_gate1(3, gates::H());
  b.apply_gate1(0, gates::T());
  EXPECT_LT(a.linf_distance(b), 1e-12);
}

TEST(Gate4, HadamardSandwichTurnsCnotIntoCz) {
  // (I (x) H) CZ (I (x) H) = CNOT.
  Rng rng(23);
  StateVector a = random_state(3, rng);
  StateVector b = a;
  a.apply_gate2(2, 1, gates::CNOT());
  b.apply_gate1(1, gates::H());
  b.apply_gate2(2, 1, gates::CZ());
  b.apply_gate1(1, gates::H());
  EXPECT_LT(a.linf_distance(b), 1e-12);
}

TEST(Gate4, PreservesNormOnRandomStates) {
  Rng rng(29);
  StateVector sv = random_state(6, rng);
  sv.apply_gate2(5, 2, gates::ISWAP());
  sv.apply_gate2(0, 4, gates::CPhase(1.3));
  EXPECT_NEAR(sv.norm_squared(), 1.0, 1e-12);
}

TEST(Gate4, ComposeAndAdjointRoundTrip) {
  const Gate4 g = gates::ISWAP().compose(gates::CPhase(0.4));
  EXPECT_LT(g.compose(g.adjoint()).distance(gates::II()), 1e-12);
}

TEST(Gate4, KernelValidatesArguments) {
  SoaVector v(8);
  EXPECT_THROW(kernels::apply_gate2(v, 3, 1, 1, gates::CZ()), CheckFailure);
  EXPECT_THROW(kernels::apply_gate2(v, 3, 3, 0, gates::CZ()), CheckFailure);
  EXPECT_THROW(kernels::apply_gate2(v, 2, 1, 0, gates::CZ()), CheckFailure);
}

TEST(Gate4, KernelMatchesReferenceOnEveryQubitPair) {
  // A gate with no zero entries, so every amplitude of a four-tuple feeds
  // every output.
  const Gate4 g = gates::tensor(gates::Ry(0.3), gates::U(0.7, 0.2, -1.1))
                      .compose(gates::ISWAP())
                      .compose(gates::CPhase(0.9));
  Rng rng(31);
  // Every tier, so a tier that reads the block-sum cache sees a stale one
  // if the gate forgets to invalidate it.
  for (const Isa isa : supported_isas()) {
    force_isa(isa);
    for (unsigned n = 2; n <= 6; ++n) {
      const std::size_t half = pow2(n) / 2;
      for (unsigned qh = 0; qh < n; ++qh) {
        for (unsigned ql = 0; ql < n; ++ql) {
          if (qh == ql) {
            continue;
          }
          auto ref = random_amps(n, rng);
          SoaVector v = SoaVector::from_amplitudes(ref);
          // A reflection first leaves the sum cache valid for `half`.
          reference::reflect_blocks_about_uniform(ref, half);
          kernels::reflect_blocks_about_uniform(v, half);
          reference::apply_gate2(ref, qh, ql, g);
          kernels::apply_gate2(v, n, qh, ql, g);
          const std::string where = std::string(isa_name(isa)) +
                                    " n=" + std::to_string(n) +
                                    " q_high=" + std::to_string(qh) +
                                    " q_low=" + std::to_string(ql);
          for (std::size_t i = 0; i < ref.size(); ++i) {
            ASSERT_LT(std::abs(v.get(i) - ref[i]), 1e-12) << where;
          }
          reference::reflect_blocks_about_uniform(ref, half);
          kernels::reflect_blocks_about_uniform(v, half);
          for (std::size_t i = 0; i < ref.size(); ++i) {
            ASSERT_LT(std::abs(v.get(i) - ref[i]), 1e-12)
                << where << " after reflection";
          }
        }
      }
    }
  }
  force_isa(std::nullopt);
}

}  // namespace
}  // namespace pqs::qsim
