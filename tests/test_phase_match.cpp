#include "partial/phase_match.h"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "common/math.h"
#include "common/random.h"

namespace pqs::partial {
namespace {

using Cplx = std::complex<double>;

Cplx residual_affine(const PhaseMatch& pm, double A, double B, double a0,
                     double C) {
  const Cplx zeta = std::polar(1.0, pm.diffusion_phase);
  const Cplx u = zeta - 1.0;
  return a0 + u * (A * std::polar(1.0, pm.oracle_phase) + B) - C * zeta;
}

TEST(PhaseMatchAffine, SolutionSatisfiesEquation) {
  Rng rng(202);
  int feasible = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    const double A = rng.uniform(-1.0, 1.0);
    const double B = rng.uniform(-1.0, 1.0);
    const double a0 = rng.uniform(-1.0, 1.0);
    const double C = rng.uniform(-1.0, 1.0);
    const auto pm = solve_phase_match_affine(A, B, a0, C);
    if (!pm.feasible) {
      continue;
    }
    ++feasible;
    ASSERT_LT(std::abs(residual_affine(pm, A, B, a0, C)), 1e-8)
        << "A=" << A << " B=" << B << " a0=" << a0 << " C=" << C;
  }
  EXPECT_GT(feasible, 100);
}

TEST(PhaseMatchAffine, ExactGroverSpecialCase) {
  // The sure-success full-search condition is the affine form with C = 0:
  // a_r + u(A e^{i phi} + B) = 0. Check it against the known geometry of
  // N = 64 after the no-overshoot iteration count.
  const double theta = std::asin(1.0 / 8.0);
  const auto m = static_cast<std::uint64_t>(
      std::floor((kHalfPi / theta - 1.0) / 2.0));
  const double a_t = std::sin((2.0 * static_cast<double>(m) + 1.0) * theta);
  const double a_r = std::cos((2.0 * static_cast<double>(m) + 1.0) * theta);
  const double s = std::sin(theta), c = std::cos(theta);
  const auto pm =
      solve_phase_match_affine(s * c * a_t, c * c * a_r, a_r, 0.0);
  ASSERT_TRUE(pm.feasible);
  EXPECT_LT(std::abs(residual_affine(pm, s * c * a_t, c * c * a_r, a_r, 0.0)),
            1e-10);
}

TEST(PhaseMatchAffine, NoCouplingIsInfeasible) {
  EXPECT_FALSE(solve_phase_match_affine(0.0, 0.1, 0.5, 0.0).feasible);
}

TEST(PhaseMatchAffine, PhasesAreFiniteAndInRange) {
  Rng rng(303);
  for (int trial = 0; trial < 200; ++trial) {
    const auto pm = solve_phase_match_affine(
        rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
        rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    if (pm.feasible) {
      ASSERT_TRUE(std::isfinite(pm.oracle_phase));
      ASSERT_TRUE(std::isfinite(pm.diffusion_phase));
      ASSERT_LE(std::fabs(pm.oracle_phase), kPi + 1e-9);
      ASSERT_LE(pm.diffusion_phase, kPi + 1e-9);
      ASSERT_GE(pm.diffusion_phase, 0.0);
    }
  }
}

}  // namespace
}  // namespace pqs::partial
