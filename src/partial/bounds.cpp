#include "partial/bounds.h"

#include <cmath>

#include "common/check.h"
#include "common/math.h"

namespace pqs::partial {

double lower_bound_coefficient(std::uint64_t k_blocks) {
  PQS_CHECK(k_blocks >= 2);
  return kQuarterPi * (1.0 - 1.0 / std::sqrt(static_cast<double>(k_blocks)));
}

double naive_block_discard_coefficient(std::uint64_t k_blocks) {
  PQS_CHECK(k_blocks >= 2);
  const auto k = static_cast<double>(k_blocks);
  return kQuarterPi * std::sqrt((k - 1.0) / k);
}

double classical_full_expected(std::uint64_t n_items) {
  PQS_CHECK(n_items >= 1);
  return (static_cast<double>(n_items) + 1.0) / 2.0;
}

std::uint64_t classical_partial_deterministic(std::uint64_t n_items,
                                              std::uint64_t k_blocks) {
  PQS_CHECK(k_blocks >= 2 && n_items % k_blocks == 0);
  return n_items - n_items / k_blocks;
}

double classical_partial_randomized_paper(std::uint64_t n_items,
                                          std::uint64_t k_blocks) {
  PQS_CHECK(k_blocks >= 2 && n_items % k_blocks == 0);
  const auto n = static_cast<double>(n_items);
  const auto k = static_cast<double>(k_blocks);
  return n / 2.0 * (1.0 - 1.0 / (k * k));
}

double classical_partial_randomized_exact(std::uint64_t n_items,
                                          std::uint64_t k_blocks) {
  const auto k = static_cast<double>(k_blocks);
  return classical_partial_randomized_paper(n_items, k_blocks) +
         (1.0 - 1.0 / k) / 2.0;
}

}  // namespace pqs::partial
