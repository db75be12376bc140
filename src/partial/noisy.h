// Partial search under oracle noise (robustness extension, DESIGN.md §6).
//
// Noise is injected after every oracle call — the physically dominant noise
// point in query algorithms — via trajectory sampling. The interesting
// output is the measured block-success probability as a function of the
// per-qubit error rate, for both partial search and full Grover search:
// partial search makes FEWER queries, so for equal per-query noise it
// retains its answer quality longer, compounding its advantage.
//
// Trajectories run on qsim::Backend (NoisyOptions::backend): the dense
// engine samples exact Pauli trajectories, the symmetry engine evolves
// per-class noise moments (see qsim/backend.h), which pushes noise sweeps
// past the 30-qubit dense ceiling. Trials fan across the calling thread's
// budget (qsim/parallel.h) via qsim::BatchRunner with per-shot RNG streams
// seeded by one draw from the caller's Rng, so results are reproducible for
// any thread count; each trial counts its queries locally and the database
// meter advances by exactly trials * queries_per_trial.
#pragma once

#include <cstdint>
#include <optional>

#include "common/random.h"
#include "common/stats.h"
#include "oracle/database.h"
#include "qsim/backend.h"
#include "qsim/noise.h"
#include "qsim/run_control.h"

namespace pqs::partial {

struct NoisyOptions {
  /// Simulation engine for the trajectories. Under an enabled noise model
  /// kAuto takes the dense engine (exact trajectories) while the state fits
  /// in memory and the symmetry engine's class moments beyond; a noiseless
  /// run follows qsim::resolve_backend. Unsupported combinations fail
  /// loudly before any trial runs.
  qsim::BackendKind backend = qsim::BackendKind::kAuto;
  /// Optional cancel/progress handle: a cancelled run skips its remaining
  /// trials and throws CancelledError; each finished trial counts one unit.
  qsim::RunControl* control = nullptr;
  /// Explicit Step-1/Step-2 iteration counts for the partial searcher.
  /// When absent, the finite-N integer optimum with floor 1 - 1/sqrt(N) is
  /// computed — itself an O(sqrt(N) * sqrt(N/K)) model search, so sweeps
  /// over huge databases should compute a schedule once (optimizer.h) and
  /// pass it here rather than re-deriving it per point.
  std::optional<std::uint64_t> l1;
  std::optional<std::uint64_t> l2;
};

struct NoisyRunResult {
  std::uint64_t trials = 0;
  /// Oracle queries of one trial, counted by the trial loop itself; the
  /// database meter advances by exactly trials * queries_per_trial
  /// (regression-pinned in tests/test_noise).
  std::uint64_t queries_per_trial = 0;
  double success_rate = 0.0;     ///< fraction of trials answering correctly
  /// The block measured most often across the trials (ties resolve to the
  /// smallest index) — the aggregate's actual answer, which equals the
  /// target block iff the majority of trajectories got it right.
  qsim::Index modal_block = 0;
  double mean_injected = 0.0;    ///< average Pauli errors injected per trial
  qsim::BackendKind backend_used = qsim::BackendKind::kDense;
};

/// Partial search (auto-optimized l1/l2, default floor) with `model` noise
/// after every oracle call; `trials` trajectory samples.
NoisyRunResult run_noisy_partial_search(const oracle::Database& db, unsigned k,
                                        const qsim::NoiseModel& model,
                                        std::uint64_t trials, Rng& rng,
                                        const NoisyOptions& options = {});

/// Full Grover search under the same noise, measuring the probability that
/// the measured address lies in the correct block (the same question the
/// partial searcher answers, for a fair comparison).
NoisyRunResult run_noisy_full_search_block(const oracle::Database& db,
                                           unsigned k,
                                           const qsim::NoiseModel& model,
                                           std::uint64_t trials, Rng& rng,
                                           const NoisyOptions& options = {});

}  // namespace pqs::partial
