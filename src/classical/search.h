// Classical baselines (Section 1.1 and Appendix A).
//
// All algorithms are zero-error: they either find the target or prove by
// elimination where it is. Costs are measured through the Database query
// counter, the same meter the quantum algorithms use.
#pragma once

#include <cstdint>

#include "common/random.h"
#include "oracle/blocks.h"
#include "oracle/database.h"
#include "qsim/run_control.h"

namespace pqs::classical {

using oracle::Index;

struct ClassicalResult {
  Index answer = 0;           ///< address (full search) or block (partial)
  bool correct = false;       ///< verified against ground truth
  std::uint64_t probes = 0;   ///< queries consumed by this run
};

/// Deterministic full search: scan addresses 0, 1, ... until found.
/// Worst case N probes (N-1 if the last cell is inferred by elimination).
ClassicalResult full_search_deterministic(const oracle::Database& db);

/// Zero-error randomized full search: probe in a uniformly random order.
/// Expected (N+1)/2 probes; the paper quotes N/2. With `control` attached
/// the scan checkpoints every kScanCheckpointInterval probes (a cancelled
/// 2^30-item scan stops within one interval, throwing CancelledError).
ClassicalResult full_search_randomized(const oracle::Database& db, Rng& rng,
                                       qsim::RunControl* control = nullptr);

/// How many probes a classical scan runs between cancellation checkpoints.
inline constexpr std::uint64_t kScanCheckpointInterval = 8192;

/// Deterministic partial search (Section 1.1): probe the first K-1 blocks;
/// if the target is not there it must be in the last block. Worst case
/// N (1 - 1/K) probes.
ClassicalResult partial_search_deterministic(const oracle::Database& db,
                                             const oracle::BlockLayout& layout);

/// Zero-error randomized partial search (Section 1.1 / Appendix A): pick a
/// random block to exclude, probe the other K-1 blocks in random order; on
/// miss the excluded block is the answer. Expected
/// N/2 (1 - 1/K^2) + (1 - 1/K)/2 probes — tight by Appendix A.
ClassicalResult partial_search_randomized(const oracle::Database& db,
                                          const oracle::BlockLayout& layout,
                                          Rng& rng,
                                          qsim::RunControl* control = nullptr);

}  // namespace pqs::classical
