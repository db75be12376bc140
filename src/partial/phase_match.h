// Closed-form phase matching for generalized Grover iterations.
//
// Sure-success partial search (partial/certainty.*) ends with one
// generalized iteration D(chi) . O(phi): the oracle multiplies the target
// amplitude by e^{i phi}, and the diffusion is replaced by the rotation
// I + (e^{i chi} - 1)|u><u| about the block-uniform axis u.
//
// In the 2-D invariant plane spanned by the target direction and its
// complement, the effect on the complement amplitude is
//
//     a' = a + u (A e^{i phi} + B),   u = e^{i chi} - 1,
//
// with real constants A (cross term), B (self term) determined by the
// geometry; this header solves for the phases that land a' where Step 3
// needs it.
#pragma once

namespace pqs::partial {

struct PhaseMatch {
  bool feasible = false;  ///< false when one iteration has no solution
  double oracle_phase = 0.0;     ///< phi
  double diffusion_phase = 0.0;  ///< chi
};

/// Solve
///
///     a0 + (e^{i chi} - 1)(A e^{i phi} + B) = C e^{i chi}
///
/// for (phi, chi), with A, B, a0, C all real. This is the sure-success
/// partial-search condition: after the generalized local iteration the
/// non-target amplitude carries e^{i chi}, so the target-block rest
/// amplitude must land on C e^{i chi} for Step 3 to cancel exactly.
/// Closed form: cos(chi) = (P^2 + Q^2 - 2 A^2) / (2 P Q - 2 A^2) with
/// P = C - B, Q = a0 - B.
PhaseMatch solve_phase_match_affine(double A, double B, double a0, double C);

}  // namespace pqs::partial
