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

/// Engine selection for the search pipelines. kAuto keeps the historical
/// dense path whenever the state fits in memory and switches to the O(1)
/// symmetry engine beyond qsim::auto_backend_cutoff() items — Grover's
/// state is the K = 1 special case of the block symmetry: one amplitude on
/// the target, one on everything else.
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

/// Success probability after m iterations, from the simulation (equals the
/// closed form sin^2((2m+1) theta); tested against it).
double success_probability_after(const oracle::Database& db,
                                 std::uint64_t iterations,
                                 const SearchOptions& options = {});

/// Full pipeline with the optimal iteration count: evolve, measure, report.
SearchResult search(const oracle::Database& db, Rng& rng,
                    const SearchOptions& options = {});

/// Full pipeline with an explicit iteration count.
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
