// Closed-form bounds from the paper, classical and quantum.
//
// All quantum bounds are stated as the coefficient of sqrt(N); the paper's
// Section 3.1 table lists them to three decimals. The classical bounds are
// absolute query counts.
#pragma once

#include <cstdint>

namespace pqs::partial {

/// Theorem 2 lower bound for partial search: (pi/4)(1 - 1/sqrt(K)).
/// The paper's table: K=2 -> 0.23, K=3 -> 0.332, K=4 -> 0.393, K=5 -> 0.434,
/// K=8 -> 0.508, K=32 -> 0.647.
double lower_bound_coefficient(std::uint64_t k_blocks);

/// The naive Section-1.2 algorithm (discard one random block, Grover over the
/// rest): (pi/4) sqrt((K-1)/K) ~ (pi/4)(1 - 1/(2K)).
double naive_block_discard_coefficient(std::uint64_t k_blocks);

// --- Classical (Section 1.1 / Appendix A) ---

/// Zero-error randomized full search, expected probes: exactly (N+1)/2
/// (the paper quotes the leading term N/2).
double classical_full_expected(std::uint64_t n_items);

/// Deterministic partial search, worst case: N (1 - 1/K).
std::uint64_t classical_partial_deterministic(std::uint64_t n_items,
                                              std::uint64_t k_blocks);

/// Zero-error randomized partial search, expected probes, paper's leading
/// form: N/2 (1 - 1/K^2).
double classical_partial_randomized_paper(std::uint64_t n_items,
                                          std::uint64_t k_blocks);

/// The same quantity with the exact O(1) term:
/// N/2 (1 - 1/K^2) + (1 - 1/K)/2; the Monte-Carlo baseline matches this.
double classical_partial_randomized_exact(std::uint64_t n_items,
                                          std::uint64_t k_blocks);

}  // namespace pqs::partial
