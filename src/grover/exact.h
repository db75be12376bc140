// Sure-success ("zero failure rate") database search.
//
// The paper notes (Section 2.1, refs [3,5,6,9]) that Grover's algorithm "can
// be modified so that the correct answer is returned with certainty (for
// example, one can modify the last iteration slightly so that the state
// vector does not overshoot its target)". This module implements that
// modification exactly:
//
//   * run m standard iterations, m the largest count with (2m+1) theta <=
//     pi/2 (no overshoot);
//   * finish with ONE generalized iteration D(chi) . O(phi), where O(phi)
//     multiplies the target amplitude by e^{i phi} (one oracle query) and
//     D(chi) = I + (e^{i chi} - 1)|psi0><psi0| is the phase-generalized
//     diffusion.
//
// The matching condition |<r|D(chi) O(phi)|psi_m>| = 0 (r = the non-target
// component) has the closed-form solution
//
//   |e^{i chi} - 1|^2 = sin^2(beta) / (sin^2 theta cos^2 theta),
//   e^{i phi} = (-cos beta' - (e^{i chi}-1) c^2 cos beta') / ((e^{i chi}-1) s c sin...)
//
// derived in the implementation (beta = pi/2 - (2m+1) theta is the residual
// angle). Total cost: m + 1 queries, success probability exactly 1.
#pragma once

#include <cstdint>
#include <memory>

#include "common/random.h"
#include "grover/grover.h"
#include "oracle/database.h"
#include "qsim/backend.h"

namespace pqs::grover {

/// The phases of the final generalized iteration, plus the plain iteration
/// count that precedes it.
struct ExactSchedule {
  std::uint64_t plain_iterations = 0;  ///< standard A = I0 . It applications
  double oracle_phase = 0.0;           ///< phi of the final O(phi)
  double diffusion_phase = 0.0;        ///< chi of the final D(chi)
  bool final_step_needed = true;  ///< false when m iterations already exact
};

/// Compute the schedule for a database of `n_items` (closed form).
ExactSchedule exact_schedule(std::uint64_t n_items);

/// Total queries of the sure-success search: plain_iterations (+1 if the
/// final generalized step is needed).
std::uint64_t exact_query_count(std::uint64_t n_items);

/// Engine-agnostic evolution through the sure-success schedule: the final
/// generalized iteration D(chi) . O(phi) maps onto the backend's
/// oracle-phase and global-rotation hooks, so both engines apply (the
/// symmetry engine runs it as the K = 1 block case at any n up to 62).
std::unique_ptr<qsim::Backend> evolve_exact_on_backend(
    const oracle::Database& db, qsim::BackendKind kind);

/// Full pipeline: evolve + measurement on the chosen engine. `correct` is
/// always true (up to the ~1e-12 simulation roundoff).
SearchResult search_exact(const oracle::Database& db, Rng& rng,
                          const SearchOptions& options = {});

}  // namespace pqs::grover
