// Stochastic Pauli noise via quantum trajectories.
//
// The paper assumes a perfect oracle; a practical question for any adopter
// is how fast the three-step algorithm's advantage degrades when each oracle
// call is followed by noise. We model the standard single-qubit Pauli
// channels by trajectory sampling: with probability p per qubit, apply a
// random Pauli (depolarizing) or Z (dephasing) after each noisy operation.
// Averaging success over trajectories converges to the density-matrix
// result; tests check the analytically solvable single-qubit cases.
//
// Two engines implement the channel (see qsim/backend.h):
//   * dense — literal Pauli gates on the amplitude array (exact trajectories);
//   * symmetry — the block-class density argument: each symmetry class keeps
//     a coherent mean and a total mass, and every Pauli updates the class
//     moments, which lets noise studies run at n = 32+ qubits.
#pragma once

#include <cmath>
#include <cstdint>
#include <string_view>

#include "common/random.h"
#include "qsim/gates.h"

namespace pqs::qsim {

enum class NoiseKind {
  kNone,
  kDepolarizing,  ///< X, Y, or Z each with probability p/3 per qubit
  kDephasing,     ///< Z with probability p per qubit
  kBitFlip,       ///< X with probability p per qubit
};

struct NoiseModel {
  NoiseKind kind = NoiseKind::kNone;
  /// Per-qubit error probability applied at each noise point.
  double probability = 0.0;

  bool enabled() const {
    return kind != NoiseKind::kNone && probability > 0.0;
  }

  /// True iff 0 <= probability <= 1 (NaN fails both comparisons).
  bool valid() const { return probability >= 0.0 && probability <= 1.0; }

  /// Throws CheckFailure unless valid(). Call ONCE at driver entry — a
  /// negative probability would otherwise make every Bernoulli draw fail
  /// and silently report a noiseless run as noisy. The per-trajectory
  /// apply_noise paths assume a validated model and keep no checks in the
  /// hot loop.
  void validate() const;
};

/// Which Pauli a channel injects.
enum class Pauli { kX, kY, kZ };

/// Visit every qubit hit by one Bernoulli(p) sweep over n_qubits qubits,
/// in increasing order, without drawing per qubit: the gap to the next hit
/// is geometric, so one uniform draw per HIT (plus one to terminate)
/// replaces n_qubits draws. At the p ~ 1e-2..1e-5 rates noise studies
/// sweep, this is what keeps 40k-query trajectories at n = 32 cheap.
/// Identically distributed to the per-qubit loop (not draw-for-draw
/// identical). Returns the number of hits. Precondition: 0 <= p <= 1.
template <typename Visit>
std::uint64_t for_each_error_qubit(unsigned n_qubits, double p, Rng& rng,
                                   Visit&& visit) {
  if (p <= 0.0) {
    return 0;
  }
  if (p >= 1.0) {
    for (unsigned q = 0; q < n_qubits; ++q) {
      visit(q);
    }
    return n_qubits;
  }
  const double log_miss = std::log1p(-p);  // < 0
  std::uint64_t injected = 0;
  std::uint64_t pos = 0;
  while (pos < n_qubits) {
    // Geometric number of unaffected qubits before the next hit.
    const double gap = std::floor(std::log1p(-rng.uniform01()) / log_miss);
    if (gap >= static_cast<double>(n_qubits - pos)) {
      break;
    }
    pos += static_cast<std::uint64_t>(gap);
    visit(static_cast<unsigned>(pos));
    ++pos;
    ++injected;
  }
  return injected;
}

/// The channel's Pauli for one injection (uniform X/Y/Z for depolarizing).
/// Both engines draw through this so they consume identical randomness.
/// Checked: kind must be a real channel, not kNone.
Pauli sample_pauli_kind(NoiseKind kind, Rng& rng);

/// The same draw as a gate matrix (the dense engine's form).
Gate2 sample_pauli(NoiseKind kind, Rng& rng);

/// Human-readable channel name.
const char* noise_kind_name(NoiseKind kind);

/// Parse "none" / "depolarizing" / "dephasing" / "bitflip" (the --noise CLI
/// flag). Throws CheckFailure on anything else.
NoiseKind parse_noise_kind(std::string_view name);

}  // namespace pqs::qsim
