// Sure-success partial search.
//
// The paper (Theorem 1) notes the algorithm "can be modified to return the
// correct answer with certainty while increasing the number of queries by at
// most a constant". This module realizes that remark: the LAST Step-2
// iteration is replaced by a generalized iteration D_block(chi) . O(phi)
// whose phases are chosen — in closed form, via
// solve_phase_match_affine — so that Step 3 zeroes the non-target blocks
// EXACTLY. Everything before it is the plain algorithm.
//
// Step-3 exact-cancellation condition (from SubspaceModel::apply_step3):
//     a_b = lambda * a_o,   lambda = (N - 1 - 2 w_o^2) / (2 w_b w_o),
// where w_b = sqrt(N/K - 1), w_o = sqrt((K-1) N/K). After the generalized
// iteration a_o carries the rotation phase e^{i chi}, so the requirement is
// a_b' = lambda * a_o * e^{i chi} — precisely the affine phase-match form.
#pragma once

#include <cstdint>
#include <optional>

#include "common/random.h"
#include "oracle/database.h"
#include "partial/analytic.h"
#include "partial/phase_match.h"
#include "qsim/backend.h"

namespace pqs::partial {

/// The schedule of the sure-success run.
struct CertaintySchedule {
  std::uint64_t l1 = 0;          ///< plain global iterations
  std::uint64_t l2_plain = 0;    ///< plain local iterations
  bool generalized_needed = true;  ///< final D(chi) . O(phi) present?
  PhaseMatch phases;             ///< phases of the final local iteration
  std::uint64_t queries = 0;     ///< l1 + l2_plain + (1 if generalized) + 1
  /// Exact target-block probability predicted by the subspace model
  /// (should be 1 up to roundoff).
  double predicted_block_probability = 0.0;
};

/// Find the schedule: uses l1 (explicit or the integer optimum's l1), then
/// scans l2 upward for the first count where one generalized iteration can
/// land the state exactly on the cancellation manifold.
CertaintySchedule certainty_schedule(std::uint64_t n_items,
                                     std::uint64_t k_blocks,
                                     std::optional<std::uint64_t> l1 = {});

/// Result of a sure-success simulation run.
struct CertainResult {
  CertaintySchedule schedule;
  double block_probability = 0.0;  ///< measured on the engine's state; ~1
  qsim::Index measured_block = 0;
  bool correct = false;  ///< always true (probability-1 measurement)
  qsim::BackendKind backend_used = qsim::BackendKind::kDense;
};

/// Run on the simulator: db.size() = 2^n, K = 2^k blocks. The generalized
/// iteration only needs the oracle-phase and block-rotation operators, so
/// both engines apply (kAuto: qsim::resolve_backend).
CertainResult run_partial_search_certain(
    const oracle::Database& db, unsigned k, Rng& rng,
    qsim::BackendKind backend = qsim::BackendKind::kAuto);

/// lambda(N, K): the Step-3 exact-cancellation ratio a_b / a_o.
double cancellation_ratio(std::uint64_t n_items, std::uint64_t k_blocks);

}  // namespace pqs::partial
