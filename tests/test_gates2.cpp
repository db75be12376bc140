#include "qsim/gates2.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/check.h"
#include "common/math.h"
#include "common/random.h"
#include "qsim/isa.h"
#include "qsim/kernels.h"
#include "qsim/soa.h"
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

using reference::basis_state;
using reference::linf_distance;
using reference::random_state;

// The kernels on a whole-register SoaVector (n = log2 of its size).
void gate1(SoaVector& v, unsigned q, const Gate2& g) {
  kernels::apply_gate1(v, log2_exact(v.size()), q, g);
}
void controlled_gate1(SoaVector& v, std::uint64_t mask, unsigned q,
                      const Gate2& g) {
  kernels::apply_controlled_gate1(v, log2_exact(v.size()), mask, q, g);
}
void gate2(SoaVector& v, unsigned q_high, unsigned q_low, const Gate4& g) {
  kernels::apply_gate2(v, log2_exact(v.size()), q_high, q_low, g);
}

/// The state's amplitude magnitude at x.
double magnitude(const SoaVector& v, Index x) { return std::abs(v.get(x)); }

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
  SoaVector sv = basis_state(2, 2);  // |10>: control (qubit 1) set
  gate2(sv, /*q_high=*/1, /*q_low=*/0, gates::CNOT());
  EXPECT_NEAR(magnitude(sv, 3), 1.0, 1e-12);

  sv = basis_state(2, 1);  // |01>: control clear
  gate2(sv, 1, 0, gates::CNOT());
  EXPECT_NEAR(magnitude(sv, 1), 1.0, 1e-12);
}

TEST(Gate4, CnotMatchesControlledGate1Kernel) {
  Rng rng(11);
  SoaVector a = random_state(5, rng);
  SoaVector b = a;
  gate2(a, /*q_high=*/3, /*q_low=*/1, gates::CNOT());
  controlled_gate1(b, /*control_mask=*/1u << 3, 1, gates::X());
  EXPECT_LT(linf_distance(a, b), 1e-12);
}

TEST(Gate4, CzIsSymmetricInItsQubits) {
  Rng rng(13);
  SoaVector a = random_state(4, rng);
  SoaVector b = a;
  gate2(a, 2, 0, gates::CZ());
  gate2(b, 0, 2, gates::CZ());
  EXPECT_LT(linf_distance(a, b), 1e-12);
}

TEST(Gate4, SwapExchangesQubitValues) {
  SoaVector sv = basis_state(3, 0b001);
  gate2(sv, /*q_high=*/2, /*q_low=*/0, gates::SWAP());
  EXPECT_NEAR(magnitude(sv, 0b100), 1.0, 1e-12);
}

TEST(Gate4, SwapEqualsThreeCnots) {
  Rng rng(17);
  SoaVector a = random_state(4, rng);
  SoaVector b = a;
  gate2(a, 3, 1, gates::SWAP());
  gate2(b, 3, 1, gates::CNOT());
  gate2(b, 1, 3, gates::CNOT());
  gate2(b, 3, 1, gates::CNOT());
  EXPECT_LT(linf_distance(a, b), 1e-12);
}

TEST(Gate4, CPhaseAtPiIsCz) {
  EXPECT_LT(gates::CPhase(kPi).distance(gates::CZ()), 1e-12);
}

TEST(Gate4, TensorActsIndependently) {
  Rng rng(19);
  SoaVector a = random_state(4, rng);
  SoaVector b = a;
  gate2(a, 3, 0, gates::tensor(gates::H(), gates::T()));
  gate1(b, 3, gates::H());
  gate1(b, 0, gates::T());
  EXPECT_LT(linf_distance(a, b), 1e-12);
}

TEST(Gate4, HadamardSandwichTurnsCnotIntoCz) {
  // (I (x) H) CZ (I (x) H) = CNOT.
  Rng rng(23);
  SoaVector a = random_state(3, rng);
  SoaVector b = a;
  gate2(a, 2, 1, gates::CNOT());
  gate1(b, 1, gates::H());
  gate2(b, 2, 1, gates::CZ());
  gate1(b, 1, gates::H());
  EXPECT_LT(linf_distance(a, b), 1e-12);
}

TEST(Gate4, PreservesNormOnRandomStates) {
  Rng rng(29);
  SoaVector sv = random_state(6, rng);
  gate2(sv, 5, 2, gates::ISWAP());
  gate2(sv, 0, 4, gates::CPhase(1.3));
  EXPECT_NEAR(kernels::norm_squared(sv), 1.0, 1e-12);
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
