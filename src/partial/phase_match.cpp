#include "partial/phase_match.h"

#include <algorithm>
#include <cmath>
#include <complex>

#include "common/check.h"
#include "common/math.h"

namespace pqs::partial {

PhaseMatch solve_phase_match_affine(double A, double B, double a0, double C) {
  PhaseMatch out;
  if (std::fabs(A) < 1e-14) {
    return out;
  }
  const double P = C - B;
  const double Q = a0 - B;
  const double denom = 2.0 * P * Q - 2.0 * A * A;
  if (std::fabs(denom) < 1e-300) {
    return out;
  }
  const double cos_chi = (P * P + Q * Q - 2.0 * A * A) / denom;
  if (std::fabs(cos_chi) > 1.0 + 1e-12) {
    return out;
  }
  const double c = std::clamp(cos_chi, -1.0, 1.0);
  // chi = 0 would make the step the identity; reject the degenerate root.
  if (c > 1.0 - 1e-14 && std::fabs(a0 - C) > 1e-12) {
    return out;
  }
  const double sin_chi = clamped_sqrt(1.0 - c * c);
  const std::complex<double> zeta{c, sin_chi};
  const std::complex<double> u = zeta - 1.0;
  // e^{i phi} = (zeta P - Q) / (u A).
  const std::complex<double> x = (zeta * P - Q) / (u * A);
  if (!approx_eq(std::abs(x), 1.0, 1e-6)) {
    return out;
  }
  out.feasible = true;
  out.oracle_phase = std::arg(x);
  out.diffusion_phase = std::atan2(sin_chi, c);
  return out;
}

}  // namespace pqs::partial
