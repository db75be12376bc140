#include "common/math.h"

#include <algorithm>
#include <bit>

namespace pqs {

unsigned log2_exact(std::uint64_t v) {
  PQS_CHECK_MSG(is_pow2(v), "log2_exact requires a power of two");
  return static_cast<unsigned>(std::countr_zero(v));
}

double clamped_asin(double x, double slack) {
  PQS_CHECK_MSG(x >= -1.0 - slack && x <= 1.0 + slack,
                "clamped_asin: argument too far outside [-1, 1]");
  return std::asin(std::clamp(x, -1.0, 1.0));
}

double clamped_acos(double x, double slack) {
  PQS_CHECK_MSG(x >= -1.0 - slack && x <= 1.0 + slack,
                "clamped_acos: argument too far outside [-1, 1]");
  return std::acos(std::clamp(x, -1.0, 1.0));
}

double clamped_sqrt(double x, double slack) {
  PQS_CHECK_MSG(x >= -slack, "clamped_sqrt: argument too negative");
  return std::sqrt(std::max(x, 0.0));
}

double grover_angle(std::uint64_t n_items, std::uint64_t n_marked) {
  PQS_CHECK(n_items > 0 && n_marked > 0 && n_marked <= n_items);
  return std::asin(
      std::sqrt(static_cast<double>(n_marked) / static_cast<double>(n_items)));
}

double grover_success_probability(std::uint64_t n_items, std::uint64_t m_iters,
                                  std::uint64_t n_marked) {
  const double theta = grover_angle(n_items, n_marked);
  const double s = std::sin((2.0 * static_cast<double>(m_iters) + 1.0) * theta);
  return s * s;
}

std::uint64_t grover_optimal_iterations(std::uint64_t n_items,
                                        std::uint64_t n_marked) {
  const double theta = grover_angle(n_items, n_marked);
  const double m = kPi / (4.0 * theta) - 0.5;
  return m <= 0.0 ? 0 : static_cast<std::uint64_t>(std::llround(m));
}

}  // namespace pqs
