// The Grover–Radhakrishnan partial-search algorithm (Section 3, Figure 2),
// engine-agnostic.
//
//   Step 1: l1 global iterations A = I0 . It on |psi0>.
//   Step 2: l2 per-block iterations A_[N/K] = (I_[K] (x) I0,[N/K]) . It.
//   Step 3: one query moves the target out (ancilla flag); controlled on the
//           flag being clear, invert the remaining amplitudes about their
//           mean. All non-target-block amplitudes become (nearly) zero.
//
// Measuring the first k bits then yields the target block. Iteration counts
// default to the exact finite-N integer optimum from partial/optimizer.h.
//
// The run dispatches over qsim::Backend (GrkOptions::backend): the dense
// engine reproduces the historical O(N)-per-step state-vector run bit for
// bit; the symmetry engine evolves the same dynamics in O(K) per step,
// exact to machine precision, which is what makes n = 48..62-qubit partial
// search instantaneous. kAuto follows qsim::resolve_backend. Snapshot
// capture materializes the full amplitude vector, which both engines give
// exactly (small N only).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/random.h"
#include "oracle/database.h"
#include "partial/analytic.h"
#include "qsim/backend.h"

namespace pqs::partial {

struct GrkOptions {
  /// Explicit iteration counts; when absent the finite-N integer optimum
  /// (success floor `min_success`) is used.
  std::optional<std::uint64_t> l1;
  std::optional<std::uint64_t> l2;
  /// Success floor for the automatic choice; <= 0 means the default
  /// 1 - 4/sqrt(N).
  double min_success = 0.0;
  /// Record the full amplitude vector after each step (small N only: the
  /// copy is checked against the dense capacity on either engine).
  bool capture_snapshots = false;
  /// Simulation engine (see header comment).
  qsim::BackendKind backend = qsim::BackendKind::kAuto;
};

/// Amplitude snapshots for the Figure-5 pictures.
struct GrkSnapshots {
  std::vector<qsim::Amplitude> after_step1;
  std::vector<qsim::Amplitude> after_step2;
  std::vector<qsim::Amplitude> after_step3;
};

struct GrkResult {
  std::uint64_t l1 = 0;
  std::uint64_t l2 = 0;
  std::uint64_t queries = 0;  ///< l1 + l2 + 1, also metered by the Database
  /// Pre-measurement probability of the target block / the target state.
  double block_probability = 0.0;
  double state_probability = 0.0;
  qsim::Index measured_block = 0;
  bool correct = false;
  qsim::BackendKind backend_used = qsim::BackendKind::kDense;
  GrkSnapshots snapshots;  ///< populated only when capture_snapshots
};

/// Run partial search for the first `k` bits of db's target (K = 2^k blocks).
/// db.size() must be a power of two with n > k >= 1 and N/K >= 2. With the
/// symmetry engine n may exceed the dense 30-qubit ceiling (up to 62).
GrkResult run_partial_search(const oracle::Database& db, unsigned k, Rng& rng,
                             const GrkOptions& options = {});

/// Evolve the pre-measurement state on the chosen engine (no sampling); the
/// returned backend exposes probabilities, block distributions, and
/// amplitude materialization.
std::unique_ptr<qsim::Backend> evolve_partial_search_on_backend(
    const oracle::Database& db, unsigned k, std::uint64_t l1,
    std::uint64_t l2, qsim::BackendKind kind);

}  // namespace pqs::partial
