// Measurement: sampling, collapse, and empirical distributions.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/random.h"
#include "qsim/state_vector.h"

namespace pqs::qsim {

/// Projectively measure all qubits: samples an outcome, collapses the state
/// to the corresponding basis vector, and returns the outcome.
Index measure_all(StateVector& state, Rng& rng);

/// Projectively measure the first k (most significant) bits: samples a block,
/// zeroes every amplitude outside that block, renormalizes, and returns the
/// block index. This is the final measurement of the partial-search algorithm.
Index measure_block(StateVector& state, unsigned k, Rng& rng);

/// Sample `shots` outcomes without collapsing; returns outcome -> count.
/// Both helpers build one sampler (qsim/sampler.h) and draw every shot
/// from it with `rng`.
std::map<Index, std::uint64_t> sample_counts(const StateVector& state,
                                             std::uint64_t shots, Rng& rng);

/// Empirical block distribution from `shots` samples of the first k bits.
std::vector<double> empirical_block_distribution(const StateVector& state,
                                                 unsigned k,
                                                 std::uint64_t shots, Rng& rng);

}  // namespace pqs::qsim
