// Small numeric helpers shared by every subsystem.
//
// All the angle bookkeeping of the paper (theta = pi/2 * eps, eq. (3)/(4)
// arcsines, Grover rotation angles) funnels through the clamped helpers here so
// that values that are mathematically in [-1, 1] but numerically 1 + 1e-16 do
// not produce NaNs.
#pragma once

#include <cmath>
#include <cstdint>
#include <numbers>

#include "common/check.h"

namespace pqs {

inline constexpr double kPi = std::numbers::pi_v<double>;
inline constexpr double kHalfPi = kPi / 2.0;
inline constexpr double kQuarterPi = kPi / 4.0;

/// 2^e as an unsigned 64-bit value. Checked: e must fit.
constexpr std::uint64_t pow2(unsigned e) {
  return e < 64 ? (std::uint64_t{1} << e)
                : (throw CheckFailure("pow2: exponent >= 64"), 0);
}

/// Exact integer log2 of a power of two. Checked.
unsigned log2_exact(std::uint64_t v);

/// True iff v is a power of two (v > 0).
constexpr bool is_pow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

/// arcsin with the argument clamped into [-1, 1] to absorb roundoff.
/// Arguments farther than `slack` outside the interval are an error.
double clamped_asin(double x, double slack = 1e-9);

/// arccos with the same clamping contract as clamped_asin.
double clamped_acos(double x, double slack = 1e-9);

/// sqrt that treats tiny negative arguments (>= -slack) as zero.
double clamped_sqrt(double x, double slack = 1e-9);

/// |a - b| <= tol ?
inline bool approx_eq(double a, double b, double tol) {
  return std::fabs(a - b) <= tol;
}

/// The Grover rotation half-angle for N items and M marked ones:
/// sin(theta) = sqrt(M/N). Each iteration advances the state by 2*theta.
double grover_angle(std::uint64_t n_items, std::uint64_t n_marked = 1);

/// Closed-form success probability of standard Grover search after m
/// iterations on N items with M marked: sin^2((2m+1) * theta).
double grover_success_probability(std::uint64_t n_items, std::uint64_t m_iters,
                                  std::uint64_t n_marked = 1);

/// The iteration count maximizing the closed-form success probability:
/// round((pi / (4 theta)) - 1/2). Matches the paper's (pi/4) sqrt(N).
std::uint64_t grover_optimal_iterations(std::uint64_t n_items,
                                        std::uint64_t n_marked = 1);

}  // namespace pqs
