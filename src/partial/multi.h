// Multi-marked partial search (extension beyond the paper).
//
// The paper assumes a unique marked address. When M >= 1 marked items all
// lie in the SAME block — e.g. "the top-M students share the first k bits
// by construction" or any clustered-hit database — the three-step algorithm
// still works verbatim: the invariant subspace stays 3-dimensional with
// e_t = uniform over the marked set, the Grover angle improves to
// arcsin(sqrt(M/N)), and Step 3 moves the whole marked set out with one
// query. Costs shrink by ~ sqrt(M), mirroring multi-target Grover.
//
// (Marked items spread across blocks leave the 3-D subspace; that genuinely
// different problem is out of scope and rejected by the checks here.)
#pragma once

#include <cstdint>
#include <optional>

#include "common/random.h"
#include "oracle/marked_set.h"
#include "partial/analytic.h"
#include "qsim/backend.h"

namespace pqs::partial {

struct MultiGrkResult {
  std::uint64_t l1 = 0;
  std::uint64_t l2 = 0;
  std::uint64_t queries = 0;
  double block_probability = 0.0;   ///< pre-measurement mass of the block
  double marked_probability = 0.0;  ///< mass on the marked set itself
  qsim::Index measured_block = 0;
  bool correct = false;
  qsim::BackendKind backend_used = qsim::BackendKind::kDense;
};

struct MultiGrkOptions {
  std::optional<std::uint64_t> l1;
  std::optional<std::uint64_t> l2;
  /// <= 0 means the default 1 - 4/sqrt(N).
  double min_success = 0.0;
  /// Simulation engine. The clustered marked set keeps the state
  /// block-symmetric (three amplitude classes with |class t| = M), so the
  /// symmetry engine applies verbatim (kAuto: qsim::resolve_backend).
  qsim::BackendKind backend = qsim::BackendKind::kAuto;
};

/// Run partial search for the first k bits of a multi-marked database.
/// All marked items must lie in one block (checked); db.size() = 2^n.
MultiGrkResult run_partial_search_multi(const oracle::MarkedDatabase& db,
                                        unsigned k, Rng& rng,
                                        const MultiGrkOptions& options = {});

/// The block shared by all marked items; throws if they span blocks or the
/// marked set is empty.
qsim::Index common_block(const oracle::MarkedDatabase& db, unsigned k);

}  // namespace pqs::partial
