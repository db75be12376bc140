// Standard quantum database search (Grover, STOC 1996), in the exact form the
// paper builds on: repeated application of A = I0 . It to the uniform start
// state (Section 2.1). Includes the closed-form rotation-angle theory used by
// every analysis in the reproduction.
#pragma once

#include <cstdint>
#include <memory>

#include "common/random.h"
#include "oracle/database.h"
#include "qsim/backend.h"

namespace pqs::grover {

/// Engine selection for the search pipelines (kAuto: qsim::resolve_backend).
/// Grover's state is the K = 1 special case of the block symmetry: one
/// amplitude on the target, one on everything else, so the O(1) symmetry
/// engine runs it exactly.
struct SearchOptions {
  qsim::BackendKind backend = qsim::BackendKind::kAuto;
};

/// Outcome of a full search run.
struct SearchResult {
  qsim::Index measured = 0;   ///< address returned by the final measurement
  bool correct = false;       ///< measured == target (ground truth)
  std::uint64_t queries = 0;  ///< oracle queries consumed
  double success_probability = 0.0;  ///< |<t|state before measurement>|^2
  qsim::BackendKind backend_used = qsim::BackendKind::kDense;
};

/// Prepare |psi0> and apply `iterations` Grover iterations A = I0 . It on
/// the chosen engine; the returned backend holds the pre-measurement state
/// and `db.queries()` advances by `iterations`. Works for any db.size() (not
/// only powers of two) and, with the symmetry engine, for sizes far beyond
/// dense reach.
std::unique_ptr<qsim::Backend> evolve_on_backend(const oracle::Database& db,
                                                 std::uint64_t iterations,
                                                 qsim::BackendKind kind);

/// Full pipeline: evolve `iterations` Grover iterations (optimal_iterations
/// for the paper's search), measure, report.
SearchResult search_with_iterations(const oracle::Database& db,
                                    std::uint64_t iterations, Rng& rng,
                                    const SearchOptions& options = {});

/// The paper's headline number: (pi/4) sqrt(N) rounded to the optimal
/// integer iteration count for a unique target among `n_items`.
std::uint64_t optimal_iterations(std::uint64_t n_items);

/// Angle of the state to the non-target axis after m iterations:
/// (2m+1) * theta with sin(theta) = 1/sqrt(N). The Figure-3 trajectory.
double angle_after(std::uint64_t n_items, std::uint64_t iterations);

}  // namespace pqs::grover
