// Generic amplitude amplification (Brassard, Hoyer, Mosca, Tapp,
// quant-ph/0005055 — paper ref [3]).
//
// Q = -A S0 A^{-1} S_t, where A is any state-preparation unitary, S0 flips
// the sign of |0...0>, and S_t flips the sign of marked states. With A = the
// Walsh-Hadamard transform, Q reduces to the standard Grover iteration
// I0 . I_t (verified in tests). The paper's Step 1 and Step 2 are both
// instances: A = H^(x)n globally, A = I (x) H^(x)(n-k) per block.
#pragma once

#include <cstdint>
#include <memory>

#include "oracle/marked_set.h"
#include "qsim/backend.h"

namespace pqs::grover {

/// Amplification for A = H^(x)n, where Q = -A S0 A^{-1} S_t collapses to
/// I0 . S_t exactly (verified against a gate-level Q in tests). Supports
/// ARBITRARY marked sets on both engines: the spec uses K = 1, so the whole
/// database is one block and the symmetry invariant holds for any marked
/// set — multi-target amplification at n = 60+ qubits is exact and O(1)
/// per step. Meters `iterations` queries on db. Checked: the marked set must
/// be non-empty (a = 0 cannot be amplified).
std::unique_ptr<qsim::Backend> amplify_uniform_on_backend(
    const oracle::MarkedDatabase& db, std::uint64_t iterations,
    qsim::BackendKind kind = qsim::BackendKind::kAuto);

/// BHMT closed form: after j steps the success probability is
/// sin^2((2j+1) theta_a) with theta_a = arcsin(sqrt(a)).
double amplified_success_probability(double initial_probability,
                                     std::uint64_t iterations);

}  // namespace pqs::grover
