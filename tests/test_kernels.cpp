#include "qsim/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/math.h"
#include "common/random.h"
#include "qsim/isa.h"
#include "qsim/kernels_ops.h"
#include "qsim/parallel.h"
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

void expect_near(const SoaVector& a, const SoaVector& b, double tol) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_LT(std::abs(a.get(i) - b.get(i)), tol) << "at index " << i;
  }
}

TEST(Kernels, PauliRejectsBadArguments) {
  SoaVector v(4);
  EXPECT_THROW(kernels::apply_pauli(v, 2, 2, Pauli::kX), CheckFailure);
  EXPECT_THROW(kernels::apply_pauli(v, 3, 0, Pauli::kX), CheckFailure);
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
  const Index marked[1] = {2};
  kernels::phase_flip_index(a, 2);
  kernels::phase_rotate_indices(b, marked, kPi);
  expect_near(a, b, 1e-12);
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
  reference::scale(b, -1.0);
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

TEST(SoaVectorTest, ReusesTheThreadsLastFreedPlanesOfTheSameSize) {
  // A state takes the planes the previous same-size state on its thread
  // freed, zero-filled like fresh ones; a state of another size does not.
  constexpr std::size_t kSize = 1000;
  const double* re = nullptr;
  const double* im = nullptr;
  {
    SoaVector v(kSize);
    v.fill(Amplitude{1.0, 2.0});
    re = v.re();
    im = v.im();
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(re) % 64, 0u);
  }
  SoaVector other(kSize + 1);
  SoaVector again(kSize);
  EXPECT_TRUE((again.re() == re && again.im() == im) ||
              (again.re() == im && again.im() == re));
  EXPECT_EQ(again.get(kSize - 1), (Amplitude{0.0, 0.0}));
  EXPECT_NE(other.re(), re);
  EXPECT_NE(other.re(), im);
}

TEST(SoaVectorTest, ConstructorSetsEveryElementAtAnyBudget) {
  // The write pass splits the chunk partition over real teams: the lifted
  // threshold opens them on small states whatever the host's core count.
  force_parallel_threshold(0);
  const Amplitude a{0.25, -3.5};
  for (const std::size_t size :
       {std::size_t{0}, std::size_t{1}, kChunk - 1, kChunk + 1,
        9 * kChunk + 3}) {
    for (const unsigned budget : {1u, 2u, 4u}) {
      set_thread_budget(budget);
      const SoaVector v(size, a);
      EXPECT_EQ(v.size(), size);
      std::size_t wrong = 0;
      for (std::size_t i = 0; i < size; ++i) {
        wrong += v.get(i) != a ? 1 : 0;
      }
      EXPECT_EQ(wrong, 0u) << "size=" << size << " budget=" << budget;
    }
  }
  set_thread_budget(0);
  force_parallel_threshold(std::nullopt);
}

TEST(SoaVectorTest, SizeOnlyConstructorZeroFillsReusedPlanes) {
  constexpr std::size_t kSize = 9 * kChunk + 3;
  { const SoaVector dirty(kSize, Amplitude{1.0, 2.0}); }
  const SoaVector v(kSize);  // takes the dirty planes back
  std::size_t nonzero = 0;
  for (std::size_t i = 0; i < kSize; ++i) {
    nonzero += v.get(i) != Amplitude{} ? 1 : 0;
  }
  EXPECT_EQ(nonzero, 0u);
}

TEST(SoaVectorTest, LargePlanesStartOnHugePageBoundaries) {
  constexpr std::size_t kCachedElems = Plane::kCachedBytes / sizeof(double);
  const auto offset = [](const double* p, std::uintptr_t align) {
    return reinterpret_cast<std::uintptr_t>(p) % align;
  };
  const SoaVector small(kCachedElems);
  EXPECT_EQ(offset(small.re(), 64), 0u);
  EXPECT_EQ(offset(small.im(), 64), 0u);
  const SoaVector large(kCachedElems + 1);
  EXPECT_EQ(offset(large.re(), std::uintptr_t{2} << 20), 0u);
  EXPECT_EQ(offset(large.im(), std::uintptr_t{2} << 20), 0u);
  const SoaVector copy = large;
  EXPECT_EQ(offset(copy.re(), std::uintptr_t{2} << 20), 0u);
  EXPECT_EQ(copy.get(kCachedElems), Amplitude{});
}

// ---- ISA-parametrized sweep against the reference -------------------------
//
// Every SoA kernel must agree with its serial reference implementation
// (reference_kernels.h) to 1e-10 on every tier compiled into this binary AND
// supported by this CPU (qsim/isa.h). Every tier runs the same composition,
// sum cache and folded Grover runs included; only the KernelOps table
// differs, and EveryPrimitiveMatchesAPlainLoopAtEveryTail checks each of the
// table's five entries on its own. The sweep runs on random non-uniform
// states, non-power-of-two sizes (SIMD tail paths), and n = 1 (N = 2,
// smaller than one vector register).
// CI also runs the whole suite under PQS_ISA=scalar and PQS_ISA=avx2, so the
// narrower tiers stay covered end to end even when the runner has wider
// hardware.

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

TEST_P(IsaSweep, PauliMatchesAPlainLoopOnEveryQubit) {
  Rng rng(109);
  for (const Pauli p : {Pauli::kX, Pauli::kY, Pauli::kZ}) {
    for (unsigned n = 1; n <= 5; ++n) {  // n = 1: N = 2, below register width
      for (unsigned q = 0; q < n; ++q) {  // strides 1, 2, 4, ...
        auto ref = random_amps(pow2(n), rng);
        SoaVector v = SoaVector::from_amplitudes(ref);
        reference::apply_pauli(ref, q, p);
        kernels::apply_pauli(v, n, q, p);
        expect_matches(v, ref);
      }
    }
  }
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
    SoaVector v = SoaVector::from_amplitudes(ref);
    EXPECT_NEAR(kernels::norm_squared(v), reference::norm_squared(ref),
                kTierTol);
    EXPECT_LT(std::abs(kernels::sum_all(v) - reference::sum_pairwise(ref)),
              kTierTol);
    if (size > 2) {
      EXPECT_NEAR(kernels::norm_squared_range(v, 1, size - 2),
                  reference::norm_squared(
                      std::span<const Amplitude>(ref).subspan(1, size - 2)),
                  kTierTol);
    }
  }
}

std::vector<double> random_plane(std::size_t n, Rng& rng) {
  std::vector<double> plane(n);
  for (double& x : plane) {
    x = rng.normal();
  }
  return plane;
}

double max_abs_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    d = std::max(d, std::abs(a[i] - b[i]));
  }
  return d;
}

TEST_P(IsaSweep, EveryPrimitiveMatchesAPlainLoopAtEveryTail) {
  // Each of the five KernelOps entries of the tier, called directly,
  // against a plain serial loop. Lengths 0..65 cross every register-group
  // tail of every width (the widest group is 16 lanes); 4096 and 4099 are
  // one chunk with and without a tail. Stored values may differ from the
  // loop only by FMA contraction, sums also by summation order.
  constexpr double kLaneTol = 1e-13;
  const kernels::KernelOps& ops = kernels::kernel_ops(GetParam());
  Rng rng(167);
  std::vector<std::size_t> lengths(66);
  std::iota(lengths.begin(), lengths.end(), std::size_t{0});
  lengths.push_back(4096);
  lengths.push_back(4099);
  const double t_re = rng.normal();
  const double t_im = rng.normal();
  const double m[8] = {0.6, 0.1, -0.3, 0.2, 0.5, -0.4, 0.7, 0.05};
  for (const std::size_t n : lengths) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const std::vector<double> re = random_plane(n, rng);
    const std::vector<double> im = random_plane(n, rng);
    const std::vector<double> b_re = random_plane(n, rng);
    const std::vector<double> b_im = random_plane(n, rng);
    double sr = 0.0, si = 0.0, wr = 0.0, wi = 0.0, w = 0.0;

    ops.sum(re.data(), im.data(), n, &sr, &si);
    for (std::size_t i = 0; i < n; ++i) {
      wr += re[i];
      wi += im[i];
      w += re[i] * re[i] + im[i] * im[i];
    }
    EXPECT_NEAR(sr, wr, kTierTol);
    EXPECT_NEAR(si, wi, kTierTol);
    EXPECT_NEAR(ops.norm_sq(re.data(), im.data(), n), w, kTierTol);

    // The mutating sum primitives against one loop: a <- t - a (or
    // a <- a + t), then the sums of the stored values.
    const auto expect_update = [&](const char* what, bool is_add,
                                   auto&& apply) {
      SCOPED_TRACE(what);
      std::vector<double> r = re, s = im, want_r = re, want_s = im;
      wr = wi = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        want_r[i] = is_add ? want_r[i] + t_re : t_re - want_r[i];
        want_s[i] = is_add ? want_s[i] + t_im : t_im - want_s[i];
        wr += want_r[i];
        wi += want_s[i];
      }
      apply(r.data(), s.data());
      EXPECT_LT(max_abs_diff(r, want_r), kLaneTol);
      EXPECT_LT(max_abs_diff(s, want_s), kLaneTol);
      EXPECT_NEAR(sr, wr, kTierTol);
      EXPECT_NEAR(si, wi, kTierTol);
    };
    expect_update("reflect", false, [&](double* r, double* s) {
      ops.reflect(r, s, n, t_re, t_im, &sr, &si);
    });
    expect_update("add", true, [&](double* r, double* s) {
      ops.add(r, s, n, t_re, t_im, &sr, &si);
    });

    std::vector<double> r = re, s = im, want_r(n), want_s(n);
    std::vector<double> r1 = b_re, s1 = b_im, want_r1(n), want_s1(n);
    ops.gate1(r.data(), s.data(), r1.data(), s1.data(), n, m);
    for (std::size_t i = 0; i < n; ++i) {
      want_r[i] = m[0] * re[i] - m[1] * im[i] + m[2] * b_re[i] - m[3] * b_im[i];
      want_s[i] = m[0] * im[i] + m[1] * re[i] + m[2] * b_im[i] + m[3] * b_re[i];
      want_r1[i] =
          m[4] * re[i] - m[5] * im[i] + m[6] * b_re[i] - m[7] * b_im[i];
      want_s1[i] =
          m[4] * im[i] + m[5] * re[i] + m[6] * b_im[i] + m[7] * b_re[i];
    }
    EXPECT_LT(max_abs_diff(r, want_r), kLaneTol);
    EXPECT_LT(max_abs_diff(s, want_s), kLaneTol);
    EXPECT_LT(max_abs_diff(r1, want_r1), kLaneTol);
    EXPECT_LT(max_abs_diff(s1, want_s1), kLaneTol);
  }
}

// ---- folded Grover runs: grover_iterations against the per-op loop -------
//
// kernels::grover_iterations takes every iteration's block means from the
// sum recurrence and applies the whole run as one affine pass per block; the
// per-op loop (phase_flip_indices + reflect_blocks_about_uniform) reads or
// recomputes the block sums every iteration and sweeps the state twice per
// iteration. The two must agree to 1e-11 per amplitude on every tier. The
// counts cover 0, 1, both parities (an odd run is a reflect pass, an even
// one an add pass) and runs of hundreds of iterations.

constexpr double kFoldedTol = 1e-11;

void per_op_iterations(SoaVector& v, std::span<const Index> marked,
                       std::size_t block_size, std::uint64_t count) {
  for (std::uint64_t i = 0; i < count; ++i) {
    kernels::phase_flip_indices(v, marked);
    kernels::reflect_blocks_about_uniform(v, block_size);
  }
}

double max_diff(const SoaVector& a, const SoaVector& b) {
  EXPECT_EQ(a.size(), b.size());
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    d = std::max(d, std::abs(a.get(i) - b.get(i)));
  }
  return d;
}

/// Every `stride`-th address from `first`: a marked set spanning every
/// block, with several marks per chunk.
std::vector<Index> spread_marks(std::size_t size, Index first,
                                std::size_t stride) {
  std::vector<Index> marked;
  for (Index x = first; x < size; x += stride) {
    marked.push_back(x);
  }
  return marked;
}

TEST_P(IsaSweep, GroverIterationsMatchPerOpAtEveryCount) {
  Rng rng(149);
  const unsigned n = 13;  // two chunks per global pass
  const std::size_t size = pow2(n);
  // Target in the first block, target in the last block, and a dense set
  // spanning all four blocks.
  const std::vector<std::vector<Index>> marked_sets = {
      {3}, {size - 2}, spread_marks(size, 5, 97)};
  for (const auto& marked : marked_sets) {
    for (const std::size_t bs : {size, size / 4}) {
      for (const std::uint64_t count : {0, 1, 2, 63, 64, 65, 197}) {
        const SoaVector start = random_state(n, rng);  // complex, non-uniform
        SoaVector folded = start;
        SoaVector per_op = start;
        kernels::grover_iterations(folded, marked, bs, count);
        per_op_iterations(per_op, marked, bs, count);
        EXPECT_LT(max_diff(folded, per_op), kFoldedTol)
            << "marks=" << marked.size() << " first=" << marked.front()
            << " block_size=" << bs << " count=" << count;
      }
    }
  }
}

TEST_P(IsaSweep, GroverIterationsMatchPerOpAtTheDenseCapCount) {
  // The longest run a dense request implies: pi/4 * sqrt(2^30) = 25,735.9
  // iterations at kMaxDenseItems, rounded up. One recurrence carries the
  // block sums through the whole run, so this is where its rounding would
  // show. One marked set, both partitions, from a random complex start and
  // from the uniform start; n = 12 keeps the per-op side at a few seconds
  // over every tier.
  constexpr std::uint64_t kCount = 25736;
  Rng rng(173);
  const unsigned n = 12;
  const std::size_t size = pow2(n);
  const std::vector<Index> marked{5, 2900};
  for (const bool uniform : {false, true}) {
    for (const std::size_t bs : {size, size / 4}) {
      const SoaVector start =
          uniform ? reference::uniform_state(n) : random_state(n, rng);
      SoaVector folded = start;
      SoaVector per_op = start;
      kernels::grover_iterations(folded, marked, bs, kCount);
      per_op_iterations(per_op, marked, bs, kCount);
      EXPECT_LT(max_diff(folded, per_op), kFoldedTol)
          << "uniform=" << uniform << " block_size=" << bs;
    }
  }
}

TEST_P(IsaSweep, GroverIterationsMatchPerOpOnOddBlockSizes) {
  // 6000-wide blocks span a full and a partial chunk, 1000- and 40-wide
  // blocks have SIMD tails and many blocks per chunk.
  Rng rng(151);
  const std::size_t size = 12000;
  const std::vector<Index> marked{0, 999, 5999, 6000, 11999};
  for (const std::size_t bs : {std::size_t{12000}, std::size_t{6000},
                               std::size_t{1000}, std::size_t{40}}) {
    for (const std::uint64_t count : {64, 197}) {
      const auto amps = random_amps(size, rng);
      SoaVector folded = SoaVector::from_amplitudes(amps);
      SoaVector per_op = folded;
      kernels::grover_iterations(folded, marked, bs, count);
      per_op_iterations(per_op, marked, bs, count);
      EXPECT_LT(max_diff(folded, per_op), kFoldedTol)
          << "block_size=" << bs << " count=" << count;
    }
  }
}

TEST_P(IsaSweep, GroverIterationsMatchPerOpOnMixedSchedulesAcrossSizes) {
  // The partial-search shape: l1 global iterations, then l2 block
  // iterations (K = 4), from a complex non-uniform start. On one thread:
  // test_threading pins every kernel, the folded one included, byte-identical
  // at budgets 1, 2 and 4, and a team here would only fight concurrently
  // running test binaries for the cores.
  set_thread_budget(1);
  Rng rng(157);
  for (unsigned n = 10; n <= 20; ++n) {
    const std::size_t size = pow2(n);
    std::vector<Index> marked;
    if (n % 3 == 0) {
      marked = spread_marks(size, 1, size / 16 + 3);
    } else if (n % 2 == 0) {
      marked = {1};  // first block
    } else {
      marked = {size - 1 - n};  // last block
    }
    const SoaVector start = random_state(n, rng);
    SoaVector folded = start;
    SoaVector per_op = start;
    kernels::grover_iterations(folded, marked, size, 65);
    kernels::grover_iterations(folded, marked, size / 4, 64);
    per_op_iterations(per_op, marked, size, 65);
    per_op_iterations(per_op, marked, size / 4, 64);
    EXPECT_LT(max_diff(folded, per_op), kFoldedTol)
        << "n=" << n << " marks=" << marked.size();
  }
  set_thread_budget(0);
}

TEST_P(IsaSweep, FoldedRunLeavesTheSumCacheOfItsStoredValues) {
  // After a folded run, a per-op reflection that reads the cache must match
  // one that recomputes the sums from the stored amplitudes. The per-op
  // reflection before the run makes the cache valid for the partition, so
  // a run that failed to refresh it would leave stale sums behind. Both
  // parities: an odd run ends in a reflect pass, an even one in an add pass.
  Rng rng(163);
  const unsigned n = 14;
  const std::size_t size = pow2(n);
  const std::vector<Index> marked{7, size / 2 + 9};
  for (const std::size_t bs : {size, size / 4}) {
    for (const std::uint64_t count : {64, 65}) {
      SoaVector v = random_state(n, rng);
      kernels::reflect_blocks_about_uniform(v, bs);
      kernels::grover_iterations(v, marked, bs, count);
      SoaVector cached = v;
      SoaVector recomputed = v;
      recomputed.invalidate_sums();
      kernels::reflect_blocks_about_uniform(cached, bs);
      kernels::reflect_blocks_about_uniform(recomputed, bs);
      EXPECT_LT(max_diff(cached, recomputed), kFoldedTol)
          << "block_size=" << bs << " count=" << count;
    }
  }
}

TEST_P(IsaSweep, FillSeedsTheGlobalSumsOfTheReadPass) {
  // A filled state's global sum cache comes from one chunk's sum and the
  // tail chunk's; it must hold the read pass's bytes at sizes with and
  // without a tail chunk, from the constructor and from fill, and the
  // folded run and the oracle-then-reflect step that follow must store the
  // same amplitudes as on a state whose cache was dropped.
  const Amplitude values[] = {{1.0 / std::sqrt(3.0 * kChunk + 5.0), 0.0},
                              {0.1, -0.7}};
  for (const std::size_t size :
       {std::size_t{2}, std::size_t{7}, kChunk, kChunk + 1, 3 * kChunk,
        3 * kChunk + 5, 16 * kChunk, 37 * kChunk + 4095}) {
    for (const Amplitude a : values) {
      SCOPED_TRACE("size " + std::to_string(size));
      SoaVector built(size, a);
      SoaVector filled(size);
      filled.fill(a);
      for (const SoaVector* v : {&built, &filled}) {
        ASSERT_TRUE(v->sums_valid(size));
        EXPECT_TRUE(v->sums_seeded());
        SoaVector read = *v;
        read.invalidate_sums();
        const Amplitude sum = kernels::sum_all(read);
        EXPECT_EQ(v->sum_re()[0], sum.real());
        EXPECT_EQ(v->sum_im()[0], sum.imag());
      }
      const std::vector<Index> marked{size / 3};
      for (const bool folded : {true, false}) {
        SoaVector seeded(size, a);
        SoaVector read(size, a);
        read.invalidate_sums();
        for (SoaVector* v : {&seeded, &read}) {
          if (folded) {
            kernels::grover_iterations(*v, marked, size, 3);
          } else {
            kernels::phase_flip_indices(*v, marked);
            kernels::reflect_about_uniform(*v);
          }
        }
        EXPECT_EQ(max_diff(seeded, read), 0.0) << "folded " << folded;
      }
    }
  }
}

TEST_P(IsaSweep, GroverIterationsRejectBadArguments) {
  SoaVector v = reference::uniform_state(6);
  const std::vector<Index> unsorted{9, 3};
  const std::vector<Index> out_of_range{64};
  const std::vector<Index> ok{3};
  EXPECT_THROW(kernels::grover_iterations(v, ok, 48, 1), CheckFailure);
  EXPECT_THROW(kernels::grover_iterations(v, ok, 0, 1), CheckFailure);
  EXPECT_THROW(kernels::grover_iterations(v, unsorted, 16, 1), CheckFailure);
  EXPECT_THROW(kernels::grover_iterations(v, out_of_range, 16, 1),
               CheckFailure);
}

INSTANTIATE_TEST_SUITE_P(
    SupportedTiers, IsaSweep, ::testing::ValuesIn(supported_isas()),
    [](const ::testing::TestParamInfo<Isa>& info) {
      return std::string(isa_name(info.param));
    });

}  // namespace
}  // namespace pqs::qsim
