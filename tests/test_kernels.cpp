#include "qsim/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/math.h"
#include "common/random.h"
#include "qsim/isa.h"
#include "qsim/soa.h"
#include "reference_kernels.h"

namespace pqs::qsim {
namespace {

std::vector<Amplitude> random_amps(std::size_t size, Rng& rng) {
  std::vector<Amplitude> amps(size);
  for (auto& a : amps) {
    a = Amplitude{rng.normal(), rng.normal()};
  }
  return amps;
}

/// A random unit vector on n qubits.
SoaVector random_state(unsigned n_qubits, Rng& rng) {
  auto amps = random_amps(pow2(n_qubits), rng);
  reference::scale(amps, 1.0 / std::sqrt(reference::norm_squared(amps)));
  return SoaVector::from_amplitudes(amps);
}

SoaVector basis_state(std::size_t size, Index x) {
  SoaVector v(size);
  v.set(x, 1.0);
  return v;
}

void expect_near(const SoaVector& a, const SoaVector& b, double tol) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_LT(std::abs(a.get(i) - b.get(i)), tol) << "at index " << i;
  }
}

TEST(Kernels, Gate1OnBasisStates) {
  // X on qubit 1 of |00> gives |10> (index 2).
  SoaVector v = basis_state(4, 0);
  kernels::apply_gate1(v, 2, 1, gates::X());
  EXPECT_NEAR(std::abs(v.get(2)), 1.0, 1e-12);
  EXPECT_NEAR(std::abs(v.get(0)), 0.0, 1e-12);
}

TEST(Kernels, Gate1PreservesNorm) {
  Rng rng(3);
  for (unsigned n = 1; n <= 6; ++n) {
    SoaVector v = random_state(n, rng);
    for (unsigned q = 0; q < n; ++q) {
      kernels::apply_gate1(v, n, q, gates::Ry(0.37 * (q + 1)));
    }
    EXPECT_NEAR(kernels::norm_squared(v), 1.0, 1e-10);
  }
}

TEST(Kernels, Gate1CommutesOnDistinctQubits) {
  Rng rng(5);
  SoaVector a = random_state(4, rng);
  SoaVector b = a;
  kernels::apply_gate1(a, 4, 0, gates::H());
  kernels::apply_gate1(a, 4, 3, gates::T());
  kernels::apply_gate1(b, 4, 3, gates::T());
  kernels::apply_gate1(b, 4, 0, gates::H());
  expect_near(a, b, 1e-12);
}

TEST(Kernels, Gate1RejectsBadArguments) {
  SoaVector v(4);
  EXPECT_THROW(kernels::apply_gate1(v, 2, 2, gates::X()), CheckFailure);
  EXPECT_THROW(kernels::apply_gate1(v, 3, 0, gates::X()), CheckFailure);
}

TEST(Kernels, ControlledGateActsOnlyWhenControlsSet) {
  // CNOT with control qubit 0, target qubit 1.
  SoaVector v = basis_state(4, 1);  // |01>: control (bit 0) is 1
  kernels::apply_controlled_gate1(v, 2, 0b01, 1, gates::X());
  EXPECT_NEAR(std::abs(v.get(3)), 1.0, 1e-12);  // -> |11>

  v = basis_state(4, 0);  // |00>: control clear -> no-op
  kernels::apply_controlled_gate1(v, 2, 0b01, 1, gates::X());
  EXPECT_NEAR(std::abs(v.get(0)), 1.0, 1e-12);
}

TEST(Kernels, ControlledGateRejectsSelfControl) {
  SoaVector v(4);
  EXPECT_THROW(kernels::apply_controlled_gate1(v, 2, 0b10, 1, gates::X()),
               CheckFailure);
}

TEST(Kernels, MultiControlledGate) {
  // Toffoli: controls 0 and 1, target 2.
  SoaVector v = basis_state(8, 3);  // |011>
  kernels::apply_controlled_gate1(v, 3, 0b011, 2, gates::X());
  EXPECT_NEAR(std::abs(v.get(7)), 1.0, 1e-12);  // -> |111>
}

TEST(Kernels, PhaseFlipIndexIsInvolutive) {
  Rng rng(7);
  SoaVector v = random_state(4, rng);
  const SoaVector before = v;
  kernels::phase_flip_index(v, 5);
  EXPECT_LT(std::abs(v.get(5) + before.get(5)), 1e-15);
  kernels::phase_flip_index(v, 5);
  expect_near(v, before, 1e-15);
}

TEST(Kernels, PhaseRotateIndexAtPiEqualsFlip) {
  Rng rng(9);
  SoaVector a = random_state(3, rng);
  SoaVector b = a;
  kernels::phase_flip_index(a, 2);
  kernels::phase_rotate_index(b, 2, kPi);
  expect_near(a, b, 1e-12);
}

TEST(Kernels, PhaseFlipMaskMatchesAllOnesOnly) {
  Rng rng(13);
  SoaVector v = random_state(3, rng);
  const SoaVector before = v;
  kernels::phase_flip_mask_all_ones(v, 0b101);
  for (std::size_t i = 0; i < v.size(); ++i) {
    const bool flipped = (i & 0b101u) == 0b101u;
    EXPECT_LT(std::abs(v.get(i) - (flipped ? -before.get(i) : before.get(i))),
              1e-15);
  }
}

TEST(Kernels, ReflectAboutUniformFixesUniform) {
  const double amp = 1.0 / std::sqrt(8.0);
  SoaVector v(8);
  v.fill(Amplitude{amp, 0.0});
  kernels::reflect_about_uniform(v);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_LT(std::abs(v.get(i) - Amplitude{amp, 0.0}), 1e-14);
  }
}

TEST(Kernels, ReflectAboutUniformNegatesOrthogonalComponent) {
  // A vector orthogonal to uniform (sum zero) should be fully negated.
  const std::vector<Amplitude> amps{
      {1.0, 0.0}, {-1.0, 0.0}, {0.5, 0.0}, {-0.5, 0.0}};
  SoaVector v = SoaVector::from_amplitudes(amps);
  kernels::reflect_about_uniform(v);
  for (std::size_t i = 0; i < amps.size(); ++i) {
    EXPECT_LT(std::abs(v.get(i) + amps[i]), 1e-14);
  }
}

TEST(Kernels, ReflectAboutUniformIsInvolutive) {
  Rng rng(17);
  SoaVector v = random_state(5, rng);
  const SoaVector before = v;
  kernels::reflect_about_uniform(v);
  kernels::reflect_about_uniform(v);
  expect_near(v, before, 1e-12);
}

TEST(Kernels, BlockReflectEqualsGlobalWhenOneBlock) {
  Rng rng(19);
  SoaVector a = random_state(4, rng);
  SoaVector b = a;
  kernels::reflect_about_uniform(a);
  kernels::reflect_blocks_about_uniform(b, b.size());
  expect_near(a, b, 1e-13);
}

TEST(Kernels, BlockReflectActsIndependentlyPerBlock) {
  Rng rng(23);
  SoaVector v = random_state(4, rng);  // 16 amplitudes, 4 blocks of 4
  const std::vector<Amplitude> before = v.to_amplitudes();
  kernels::reflect_blocks_about_uniform(v, 4);
  for (std::size_t b = 0; b < 4; ++b) {
    SoaVector block = SoaVector::from_amplitudes(
        {before.begin() + 4 * b, before.begin() + 4 * b + 4});
    kernels::reflect_about_uniform(block);
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_LT(std::abs(v.get(4 * b + i) - block.get(i)), 1e-13);
    }
  }
}

TEST(Kernels, BlockReflectRejectsNonDivisor) {
  SoaVector v(8);
  EXPECT_THROW(kernels::reflect_blocks_about_uniform(v, 3), CheckFailure);
}

TEST(Kernels, RotateBlocksAtPiEqualsMinusReflection) {
  Rng rng(29);
  SoaVector a = random_state(4, rng);
  SoaVector b = a;
  kernels::reflect_blocks_about_uniform(a, 4);
  kernels::rotate_blocks_about_uniform(b, 4, kPi);
  // rotate(pi) = I - 2|u><u| = -(2|u><u| - I).
  kernels::scale(b, -1.0);
  expect_near(a, b, 1e-12);
}

TEST(Kernels, RotateBlocksAtZeroIsIdentity) {
  Rng rng(31);
  SoaVector v = random_state(3, rng);
  const SoaVector before = v;
  kernels::rotate_blocks_about_uniform(v, 4, 0.0);
  expect_near(v, before, 1e-14);
}

TEST(Kernels, RotateBlocksPreservesNorm) {
  Rng rng(37);
  SoaVector v = random_state(5, rng);
  kernels::rotate_blocks_about_uniform(v, 8, 1.234);
  EXPECT_NEAR(kernels::norm_squared(v), 1.0, 1e-12);
}

TEST(Kernels, NonTargetMeanReflectLeavesTargetUntouched) {
  Rng rng(43);
  SoaVector v = random_state(4, rng);
  const Amplitude target_before = v.get(9);
  kernels::reflect_non_target_about_their_mean(v, 9);
  EXPECT_LT(std::abs(v.get(9) - target_before), 1e-15);
}

TEST(Kernels, NonTargetMeanReflectPreservesNorm) {
  Rng rng(47);
  SoaVector v = random_state(5, rng);
  kernels::reflect_non_target_about_their_mean(v, 0);
  EXPECT_NEAR(kernels::norm_squared(v), 1.0, 1e-12);
}

TEST(Kernels, NonTargetMeanReflectZeroesEqualAmplitudes) {
  // The defining identity a' = 2*mean - a on the non-target set, with the
  // target left alone.
  const std::vector<Amplitude> amps{
      {0.9, 0.0}, {0.1, 0.0}, {0.3, 0.0}, {-0.1, 0.0}};
  const Index t = 0;
  const Amplitude mean = (amps[1] + amps[2] + amps[3]) / 3.0;
  auto expected = amps;
  for (std::size_t i = 1; i < 4; ++i) {
    expected[i] = 2.0 * mean - amps[i];
  }
  SoaVector v = SoaVector::from_amplitudes(amps);
  kernels::reflect_non_target_about_their_mean(v, t);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_LT(std::abs(v.get(i) - expected[i]), 1e-14);
  }
}

TEST(Kernels, InnerProductOrthonormalBasis) {
  const SoaVector e0 = basis_state(2, 0);
  const SoaVector e1 = basis_state(2, 1);
  EXPECT_LT(std::abs(kernels::inner_product(e0, e1)), 1e-15);
  EXPECT_LT(std::abs(kernels::inner_product(e0, e0) - Amplitude{1.0, 0.0}),
            1e-15);
}

TEST(Kernels, InnerProductConjugatesFirstArgument) {
  SoaVector a(1);
  a.set(0, Amplitude{0.0, 1.0});  // i
  const SoaVector b = basis_state(1, 0);  // 1
  // <a|b> = conj(i) * 1 = -i.
  EXPECT_LT(std::abs(kernels::inner_product(a, b) - Amplitude{0.0, -1.0}),
            1e-15);
}

TEST(Kernels, ScaleMultipliesEverything) {
  const std::vector<Amplitude> amps{{1.0, 0.0}, {2.0, 0.0}};
  SoaVector v = SoaVector::from_amplitudes(amps);
  kernels::scale(v, Amplitude{0.0, 1.0});
  EXPECT_LT(std::abs(v.get(0) - Amplitude{0.0, 1.0}), 1e-15);
  EXPECT_LT(std::abs(v.get(1) - Amplitude{0.0, 2.0}), 1e-15);
}

// ---- ISA-parametrized sweep against the reference -------------------------
//
// Every SoA kernel must agree with its serial reference implementation
// (reference_kernels.h) to 1e-10 on every tier compiled into this binary AND supported by this CPU
// (qsim/isa.h). The sweep runs on random non-uniform states, non-power-of-
// two sizes (SIMD tail paths), and n = 1 (N = 2, smaller than one vector
// register). CI pins PQS_ISA=scalar and PQS_ISA=avx2 jobs so the narrower
// tiers stay covered even when the runner has wider hardware.

constexpr double kTierTol = 1e-10;

void expect_matches(const SoaVector& v, const std::vector<Amplitude>& ref,
                    double tol = kTierTol) {
  ASSERT_EQ(v.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_LT(std::abs(v.get(i) - ref[i]), tol) << "at index " << i;
  }
}

class IsaSweep : public ::testing::TestWithParam<Isa> {
 protected:
  void SetUp() override { force_isa(GetParam()); }
  void TearDown() override { force_isa(std::nullopt); }
};

TEST_P(IsaSweep, ForceIsaControlsDispatch) {
  EXPECT_EQ(active_isa(), GetParam());
  EXPECT_TRUE(isa_supported(GetParam()));
}

TEST_P(IsaSweep, ReflectAboutUniformMatchesReferenceOnOddSizes) {
  Rng rng(101);
  // 1 and 6 are smaller than a vector register; 1000 and 4100 exercise the
  // chunked pairwise reduction's tails (kChunk = 4096 inside kernels_soa).
  for (const std::size_t size : {std::size_t{1}, std::size_t{2},
                                 std::size_t{6}, std::size_t{1000},
                                 std::size_t{4100}, std::size_t{8192}}) {
    auto ref = random_amps(size, rng);
    SoaVector v = SoaVector::from_amplitudes(ref);
    reference::reflect_about_uniform(ref);
    kernels::reflect_about_uniform(v);
    expect_matches(v, ref);
  }
}

TEST_P(IsaSweep, BlockReflectMatchesReference) {
  Rng rng(103);
  const std::size_t size = 6000;  // 1000-wide blocks have SIMD tails
  for (const std::size_t bs : {std::size_t{1}, std::size_t{4},
                               std::size_t{1000}, std::size_t{6000}}) {
    auto ref = random_amps(size, rng);
    SoaVector v = SoaVector::from_amplitudes(ref);
    reference::reflect_blocks_about_uniform(ref, bs);
    kernels::reflect_blocks_about_uniform(v, bs);
    expect_matches(v, ref);
  }
}

TEST_P(IsaSweep, RotateBlocksMatchesReference) {
  Rng rng(107);
  auto ref = random_amps(6000, rng);
  SoaVector v = SoaVector::from_amplitudes(ref);
  reference::rotate_blocks_about_uniform(ref, 1000, 0.77);
  kernels::rotate_blocks_about_uniform(v, 1000, 0.77);
  expect_matches(v, ref);
}

TEST_P(IsaSweep, Gate1MatchesReferenceAcrossStrides) {
  Rng rng(109);
  for (unsigned n = 1; n <= 5; ++n) {  // n = 1: N = 2, below register width
    auto ref = random_amps(pow2(n), rng);
    SoaVector v = SoaVector::from_amplitudes(ref);
    for (unsigned q = 0; q < n; ++q) {  // strides 1, 2, 4, ...
      const Gate2 g = gates::Ry(0.41 * (q + 1));
      reference::apply_gate1(ref, q, g);
      kernels::apply_gate1(v, n, q, g);
    }
    expect_matches(v, ref);
  }
}

TEST_P(IsaSweep, ControlledGate1MatchesReference) {
  Rng rng(113);
  auto ref = random_amps(16, rng);
  SoaVector v = SoaVector::from_amplitudes(ref);
  for (const std::uint64_t mask : {0b0001ULL, 0b1010ULL}) {
    reference::apply_controlled_gate1(ref, mask, 2, gates::H());
    kernels::apply_controlled_gate1(v, 4, mask, 2, gates::H());
  }
  expect_matches(v, ref);
}

TEST_P(IsaSweep, PhaseKernelsMatchReference) {
  Rng rng(127);
  auto ref = random_amps(32, rng);
  SoaVector v = SoaVector::from_amplitudes(ref);
  const std::vector<Index> marked{3, 17, 31};
  reference::phase_flip_indices(ref, marked);
  kernels::phase_flip_indices(v, marked);
  reference::phase_rotate_indices(ref, marked, 1.1);
  kernels::phase_rotate_indices(v, marked, 1.1);
  reference::phase_flip_mask_all_ones(ref, 0b10100);
  kernels::phase_flip_mask_all_ones(v, 0b10100);
  reference::scale(ref, Amplitude{0.6, -0.8});
  kernels::scale(v, Amplitude{0.6, -0.8});
  expect_matches(v, ref);
}

TEST_P(IsaSweep, FusedSumCacheSurvivesOracleInterleaving) {
  // The Grover inner loop: oracle phase flips (incremental O(1) cache
  // deltas) interleaved with block reflections (cache read + refresh).
  // Any cache-maintenance bug compounds over iterations, so compare
  // against the reference after every step for many iterations.
  Rng rng(131);
  const std::size_t size = 2048;
  auto ref = random_amps(size, rng);
  SoaVector v = SoaVector::from_amplitudes(ref);
  const std::vector<Index> marked{5, 700, 1500};
  for (int iter = 0; iter < 50; ++iter) {
    reference::phase_flip_indices(ref, marked);
    kernels::phase_flip_indices(v, marked);
    reference::reflect_blocks_about_uniform(ref, 256);
    kernels::reflect_blocks_about_uniform(v, 256);
    ASSERT_NO_FATAL_FAILURE(expect_matches(v, ref)) << "iteration " << iter;
  }
  // Switch partitions mid-run (cache must not leak across block sizes),
  // then hammer the generalized-phase pair.
  for (int iter = 0; iter < 20; ++iter) {
    reference::phase_rotate_indices(ref, marked, 0.3);
    kernels::phase_rotate_indices(v, marked, 0.3);
    reference::reflect_about_uniform(ref);
    kernels::reflect_about_uniform(v);
    reference::rotate_blocks_about_uniform(ref, 512, 2.2);
    kernels::rotate_blocks_about_uniform(v, 512, 2.2);
    ASSERT_NO_FATAL_FAILURE(expect_matches(v, ref)) << "iteration " << iter;
  }
}

TEST_P(IsaSweep, MeanReflectionsMatchReference) {
  Rng rng(137);
  auto ref = random_amps(1000, rng);
  SoaVector v = SoaVector::from_amplitudes(ref);
  reference::reflect_non_target_about_their_mean(ref, 123);
  kernels::reflect_non_target_about_their_mean(v, 123);
  expect_matches(v, ref);
  const std::vector<Index> marked{0, 11, 999};
  reference::reflect_unmarked_about_their_mean(ref, marked);
  kernels::reflect_unmarked_about_their_mean(v, marked);
  expect_matches(v, ref);
}

TEST_P(IsaSweep, ReductionsMatchReference) {
  Rng rng(139);
  for (const std::size_t size :
       {std::size_t{1}, std::size_t{7}, std::size_t{4100}}) {
    auto ref = random_amps(size, rng);
    auto ref_b = random_amps(size, rng);
    SoaVector v = SoaVector::from_amplitudes(ref);
    SoaVector vb = SoaVector::from_amplitudes(ref_b);
    EXPECT_NEAR(kernels::norm_squared(v), reference::norm_squared(ref),
                kTierTol);
    EXPECT_LT(std::abs(kernels::sum_all(v) - reference::sum_pairwise(ref)),
              kTierTol);
    EXPECT_LT(std::abs(kernels::inner_product(v, vb) -
                       reference::inner_product(ref, ref_b)),
              kTierTol);
    if (size > 2) {
      EXPECT_NEAR(kernels::norm_squared_range(v, 1, size - 2),
                  reference::norm_squared(
                      std::span<const Amplitude>(ref).subspan(1, size - 2)),
                  kTierTol);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SupportedTiers, IsaSweep, ::testing::ValuesIn(supported_isas()),
    [](const ::testing::TestParamInfo<Isa>& info) {
      return std::string(isa_name(info.param));
    });

}  // namespace
}  // namespace pqs::qsim
