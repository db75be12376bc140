// Exact 3-dimensional invariant-subspace model of the partial-search
// algorithm.
//
// Every operator the GRK algorithm uses — the global iteration A = I0 . It,
// the per-block iteration A_[N/K] = (I_[K] (x) I0,[N/K]) . It, and the Step-3
// "move the target out and invert the rest about their mean" — preserves the
// real 3-dimensional subspace spanned by
//
//   e_t = |t>                                            (the target)
//   e_b = uniform over the other N/K - 1 target-block states
//   e_o = uniform over the (K-1) N/K non-target states
//
// so the entire algorithm can be evolved exactly in O(1) per step for ANY
// N, K with K | N and N/K >= 2 — including sizes far beyond what a state
// vector can hold. This model is the backbone of the finite-N optimizer and
// of every Figure-3/4/5 trajectory; it is cross-validated against the full
// simulator in tests/test_integration.cpp to ~1e-10.
#pragma once

#include <complex>
#include <cstdint>
#include <string>

#include "partial/phase_match.h"

namespace pqs::partial {

/// State in the invariant subspace. Amplitudes are complex because the
/// sure-success variant introduces phases; the plain algorithm keeps them
/// real.
struct SubspaceState {
  std::complex<double> a_t{0.0, 0.0};  ///< amplitude of e_t
  std::complex<double> a_b{0.0, 0.0};  ///< amplitude of e_b
  std::complex<double> a_o{0.0, 0.0};  ///< amplitude of e_o

  /// Probability that measuring the first k bits returns the target block.
  double target_block_probability() const;
  /// Probability of measuring the target state itself.
  double target_state_probability() const { return std::norm(a_t); }
};

/// The model for a database of `n_items` split into `n_blocks` equal blocks.
///
/// Generalization beyond the paper: `n_marked >= 1` marked items, all lying
/// in the same (target) block. The subspace stays 3-dimensional with
/// e_t = uniform over the marked set; the paper's setting is n_marked = 1.
class SubspaceModel {
 public:
  SubspaceModel(std::uint64_t n_items, std::uint64_t n_blocks,
                std::uint64_t n_marked = 1);

  std::uint64_t num_items() const { return n_; }
  std::uint64_t num_blocks() const { return k_; }
  std::uint64_t block_size() const { return n_ / k_; }
  std::uint64_t num_marked() const { return m_; }

  /// |psi0>: the uniform superposition.
  SubspaceState uniform_start() const;

  /// One global Grover iteration A = I0 . It. One query.
  SubspaceState apply_global(const SubspaceState& s) const;

  /// One per-block iteration A_[N/K]. One query.
  SubspaceState apply_local(const SubspaceState& s) const;

  /// Generalized per-block iteration: oracle phase phi on the target, then
  /// the rotation I + (e^{i chi}-1)|u_block><u_block| inside each block.
  /// At phi = chi = pi this equals -apply_local (an unobservable global
  /// phase; the rotation convention is I - 2|u><u| rather than 2|u><u| - I).
  /// One query.
  SubspaceState apply_local_generalized(const SubspaceState& s, double phi,
                                        double chi) const;

  /// Step 3: one query marks the target out; the other amplitudes are
  /// inverted about their common mean.
  SubspaceState apply_step3(const SubspaceState& s) const;

  /// Run the full three-step algorithm with explicit iteration counts.
  /// Queries consumed: l1 + l2 + 1.
  SubspaceState run_grk(std::uint64_t l1, std::uint64_t l2) const;

  /// Per-basis-state amplitude of the non-target states inside the target
  /// block: a_b / sqrt(N/K - 1).
  std::complex<double> per_state_target_rest(const SubspaceState& s) const;

  /// The paper's Step-2 stopping condition: the mean amplitude of ALL
  /// non-target states must equal half the per-state amplitude in non-target
  /// blocks; equivalently Step 3 sends a_o to exactly 0. Returns the residual
  /// a_o after a hypothetical Step 3 (0 when the condition holds).
  double step3_residual(const SubspaceState& s) const;

  /// Components of the block-uniform axis v inside the target block:
  /// v = (1, sqrt(N/K - 1)) / sqrt(N/K) over (e_t, e_b). Used by the
  /// sure-success phase matching.
  double block_axis_target() const { return v_t_; }
  double block_axis_rest() const { return v_b_; }
  /// sqrt(N/K - 1) and sqrt((K-1) N/K): the basis-change weights.
  double weight_target_rest() const { return w_b_; }
  double weight_non_target() const { return w_o_; }

 private:
  std::uint64_t n_;
  std::uint64_t k_;
  std::uint64_t m_;
  // Cached geometry.
  double u_t_, u_b_, u_o_;  // |psi0> components in the subspace basis
  double v_t_, v_b_;        // block-uniform axis inside the target block
  double w_b_, w_o_;        // sqrt(N/K - 1), sqrt((K-1) N/K)
};

}  // namespace pqs::partial
