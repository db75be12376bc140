// Quantum search with an unknown number of marked items
// (Boyer, Brassard, Hoyer, Tapp, Fortschr. Phys. 46 (1998) — paper ref [2]).
//
// The partial-search paper cites BBHT as part of the optimality background
// for standard search; the reduction in Theorem 2 also ends with a search
// over a small residual set, for which the unknown-M algorithm is the
// textbook tool. Expected cost O(sqrt(N/M)) queries when M items are marked.
//
// The generate-and-test rounds run on a qsim::Backend (BbhtOptions::backend):
// K = 1 with the database's marked set, so the symmetry engine applies to
// ANY marked set — the whole database is one block — and huge-N runs are
// exact and cheap. Independent restarts (the Monte-Carlo estimator of the
// expected query count) fan across the calling thread's budget
// (qsim/parallel.h) via search_unknown_batch.
#pragma once

#include <cstdint>
#include <optional>

#include "common/random.h"
#include "oracle/marked_set.h"
#include "qsim/backend.h"
#include "qsim/run_control.h"

namespace pqs::grover {

struct BbhtResult {
  std::optional<qsim::Index> found;  ///< a marked address, if one was found
  std::uint64_t queries = 0;         ///< total oracle queries (quantum + the
                                     ///< classical verification probes)
  std::uint64_t rounds = 0;          ///< number of generate-and-test rounds
};

struct BbhtOptions {
  /// Growth factor for the iteration-count cap m; BBHT prove any
  /// lambda in (1, 4/3) works, and recommend 6/5.
  double lambda = 1.2;
  /// Give up after this many oracle queries (the algorithm cannot detect
  /// M = 0 on its own). 0 means use the BBHT default of 9 sqrt(N).
  std::uint64_t max_queries = 0;
  /// Simulation engine for the Grover rounds (kAuto: qsim::resolve_backend;
  /// the K = 1 spec is always block-symmetric, so it runs symmetry).
  qsim::BackendKind backend = qsim::BackendKind::kAuto;
  /// Optional cancel handle: the generate-and-test loop checks it per round
  /// and a cancelled search throws CancelledError (in the batched form the
  /// remaining restarts are skipped too).
  qsim::RunControl* control = nullptr;
};

/// Run the BBHT loop: pick j uniform in [0, ceil(m)), apply j Grover
/// iterations, measure, verify with one classical probe; on failure grow m by
/// lambda (capped at sqrt(N)) and repeat.
BbhtResult search_unknown(const oracle::MarkedDatabase& db, Rng& rng,
                          const BbhtOptions& options = {});

/// Aggregate of many independent BBHT runs (the Monte-Carlo estimator of
/// the expected query count).
struct BbhtBatchReport {
  std::uint64_t shots = 0;
  std::uint64_t found = 0;       ///< shots that returned a marked address
  double mean_queries = 0.0;     ///< average queries per shot
  double mean_rounds = 0.0;      ///< average generate-and-test rounds
};

/// Fan `shots` independent search_unknown runs across the calling thread's
/// budget with per-shot RNG streams, all seeded by one draw from `rng`
/// (deterministic in the caller's seed for any thread count). Each shot
/// owns its backend and query counter; the database meter advances by the
/// batch total once the fan-out completes.
BbhtBatchReport search_unknown_batch(const oracle::MarkedDatabase& db,
                                     std::uint64_t shots, Rng& rng,
                                     const BbhtOptions& options = {});

/// Expected query count ~ (per BBHT Theorem 3) at most 9/2 sqrt(N/M) for
/// M >= 1 marked items; exposed for the tests that check the measured mean.
double bbht_expected_queries_bound(std::uint64_t n_items,
                                   std::uint64_t n_marked);

}  // namespace pqs::grover
