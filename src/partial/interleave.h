// Schedule ablation: arbitrary interleavings of global and local iterations.
//
// The paper's algorithm is the two-segment schedule G^l1 L^l2 (+ the Step-3
// query). Nothing in the framework forbids richer interleavings such as
// G^a L^b G^c — indeed the follow-up literature (Korepin-Grover 2005)
// optimizes exactly such sequences. This module searches, on the exact
// subspace model, over all alternating schedules with up to `max_segments`
// segments, and reports the cheapest one meeting a success floor. The
// bench (bench_interleave) compares it against the paper's two-segment
// optimum: at practical sizes a third segment buys a small but real
// improvement, and the gain saturates quickly with more segments.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "oracle/database.h"
#include "partial/analytic.h"
#include "qsim/backend.h"

namespace pqs::partial {

/// One maximal run of identical iterations.
struct ScheduleSegment {
  bool global = true;        ///< true: A = I0.It; false: A_[N/K]
  std::uint64_t count = 0;
};

/// An alternating schedule; total queries = sum of counts + 1 (Step 3).
struct Schedule {
  std::vector<ScheduleSegment> segments;

  std::uint64_t iteration_count() const;
  std::uint64_t query_count() const { return iteration_count() + 1; }
  /// e.g. "G^12 L^5 G^3".
  std::string to_string() const;
};

/// Evolve the model through a schedule and Step 3; returns the final state.
SubspaceState run_schedule(const SubspaceModel& model,
                           const Schedule& schedule);

/// Apply the schedule's iterations (not Step 3) to `backend`, metering
/// queries on `db`: one Backend::apply_grover_iterations call per run of
/// same-kind segments.
void apply_schedule(const oracle::Database& db, const Schedule& schedule,
                    qsim::Backend& backend);

/// Evolve the same schedule (plus Step 3) on a simulation backend bound to
/// `db`, metering queries on the database. Returns the final target-block
/// probability — the quantity the optimizer scores — so optimized schedules
/// can be validated or executed on either engine at any size.
double run_schedule_on_backend(const oracle::Database& db, unsigned k,
                               const Schedule& schedule,
                               qsim::BackendKind backend);

struct InterleaveOptimum {
  Schedule schedule;
  std::uint64_t queries = 0;
  double success = 0.0;
};

/// Cheapest alternating schedule with at most `max_segments` segments whose
/// post-Step-3 target-block probability is >= min_success. Exhaustive with
/// branch-and-bound pruning on the exact O(1)-per-step model. max_segments
/// is capped at 4 (the search is exponential in the segment count).
InterleaveOptimum optimize_interleaved(std::uint64_t n_items,
                                       std::uint64_t k_blocks,
                                       double min_success,
                                       unsigned max_segments);

}  // namespace pqs::partial
