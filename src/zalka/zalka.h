// Numerical machinery for Theorem 3 (Appendix B): the small-error refinement
// of Zalka's optimality bound for quantum search.
//
// For a T-query algorithm given as a qsim::Circuit we compute, on either
// exact engine (one backend per oracle, the circuit driven op by op through
// qsim::apply_op, each state read through Backend::amplitudes_copy), every
// quantity in the appendix:
//
//   |phi_t>      states of the all-identity-oracle run,
//   |phi^y_t>    states of the O_y run,
//   |phi^{y,i}_t> hybrids (first T-i queries identity, last i real),
//   p_{i,y}      probability that the address register of |phi_i> reads y,
//   theta(a, b) = arccos |<a|b>|,
//
// and verify Lemmas 1-3 plus the final chain
//   sum_i sum_y 2 arcsin sqrt(p_{i,y}) >= sum_y theta(phi_T, phi^y_T)
//                                       >= N (pi/2) (1 - O(sqrt(eps)+N^-1/4)).
#pragma once

#include <cstdint>
#include <vector>

#include "qsim/backend.h"
#include "qsim/circuit.h"
#include "qsim/run_control.h"
#include "qsim/types.h"

namespace pqs::zalka {

/// arccos |<a|b>| in [0, pi/2]; the angle metric of the appendix, on two
/// amplitude vectors (Backend::amplitudes_copy). Checked: equal sizes.
double state_angle(const std::vector<qsim::Amplitude>& a,
                   const std::vector<qsim::Amplitude>& b);

/// All Appendix-B quantities for one algorithm (circuit) on n qubits.
struct ZalkaReport {
  unsigned n_qubits = 0;
  std::uint64_t n_items = 0;
  std::uint64_t queries = 0;  ///< T

  /// min over y of the success probability |<y|phi^y_T>|^2; eps = 1 - this.
  double min_success = 0.0;
  double eps = 0.0;

  /// sum_y theta(phi_T, phi^y_T) — the Lemma-1 quantity.
  double sum_final_angles = 0.0;
  /// Lemma 1's floor: N (pi/2) (1 - sqrt(eps) - N^{-1/4}) (constant 1 for
  /// the O(.)).
  double lemma1_floor = 0.0;

  /// Per-query sums S_i = sum_y arcsin sqrt(p_{i,y}) for i = 0..T-1.
  std::vector<double> per_query_sums;
  /// Lemma 3's ceiling: sqrt(N) (1 + 1/N).
  double lemma3_ceiling = 0.0;
  /// max_i S_i actually observed.
  double max_per_query_sum = 0.0;

  /// The implied lower bound on T from the chain:
  /// T >= (sum_y theta) / (2 max_i S_i is too loose; we use the exact chain
  /// T * 2 * lemma3_ceiling >= sum_final_angles), i.e.
  /// T >= sum_final_angles / (2 sqrt(N)(1 + 1/N)).
  double implied_query_floor = 0.0;

  /// Lemma 2 verified: for every sampled y and every i,
  /// theta(phi^{y,i-1}_T, phi^{y,i}_T) <= 2 arcsin sqrt(p_{T-i,y}).
  bool lemma2_holds = true;
  /// Largest violation margin found (<= 0 when lemma2_holds).
  double lemma2_worst_slack = 0.0;

  /// The engine the circuit ran on (options.backend resolved).
  qsim::BackendKind backend_used = qsim::BackendKind::kDense;
};

struct ZalkaOptions {
  /// Verify Lemma 2's hybrid inequality for at most this many y values
  /// (the full check is O(N T) circuit runs). 0 = all y.
  std::uint64_t lemma2_sample = 0;
  /// Engine for every circuit run, resolved per oracle by
  /// qsim::resolve_backend (kAuto: the symmetry engine). Each run has one
  /// target, so its state is block-symmetric and both engines give it
  /// exactly; the inner products between runs against different oracles
  /// are taken on the materialized amplitude vectors.
  qsim::BackendKind backend = qsim::BackendKind::kAuto;
  /// Optional cancel/progress handle, as BbhtOptions carries. The analysis
  /// makes 1 + N + S * T circuit runs: the all-identity run, one run per
  /// oracle, and T hybrids for each of the S sampled y. It sets work_total
  /// to that count, checks for cancellation before every run (throwing
  /// CancelledError) and advances work_done once per finished run.
  qsim::RunControl* control = nullptr;
};

/// Analyze an arbitrary search circuit. The circuit must prepare nothing
/// itself: it is run from the uniform superposition (as Grover does). The
/// ops that read the oracle — OracleOp, OraclePhaseOp and NonTargetMeanOp —
/// are exactly the ones that cost a query, so the identity/hybrid
/// substitutions are well defined. Block ops must share one k (the
/// backend's block count).
ZalkaReport analyze_circuit(const qsim::Circuit& circuit,
                            const ZalkaOptions& options = {});

/// Convenience: analyze the standard Grover circuit with `iterations`
/// iterations on n qubits.
ZalkaReport analyze_grover(unsigned n_qubits, std::uint64_t iterations,
                           const ZalkaOptions& options = {});

/// Theorem 3's closed form with unit constants:
/// (pi/4) sqrt(N) (1 - (sqrt(eps) + N^{-1/4})).
double theorem3_floor(std::uint64_t n_items, double eps);

}  // namespace pqs::zalka
