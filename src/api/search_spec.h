// The declarative request/response pair of the search service.
//
// Every algorithm in this repository answers one parameterized question —
// "where is the marked item (or its block)?" — yet each module historically
// exposed its own Options/Result structs re-declaring the same backend /
// noise / seed knobs. SearchSpec is the single request type that subsumes
// them: describe the database, what you want to know, and how to run, then
// hand it to pqs::Engine. SearchReport is the unified response.
//
// A spec carries no thread count: the answer depends on (spec, seed) alone,
// and every shot fan-out runs on its calling thread's budget
// (qsim/parallel.h), so a request cannot size a team.
//
// A spec is pure data (no oracle callbacks into user code except the
// optional merit predicate, which the engine materializes into a marked set
// up front), so specs can be logged, hashed, replayed, and compared — the
// properties a production service needs for caching and capacity planning.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "qsim/backend.h"
#include "qsim/noise.h"
#include "qsim/types.h"

namespace pqs {

/// One declarative search request.
struct SearchSpec {
  /// Registry name ("grover", "grk", "certainty", ...) or "auto" to let the
  /// engine pick per the paper's cost model (Engine::resolve_algorithm).
  std::string algorithm = "auto";

  /// Database size N (any N >= 2 for the algorithms that allow it; the
  /// power-of-two requirements of individual algorithms still apply and
  /// fail loudly).
  std::uint64_t n_items = 0;

  /// Block granularity K (contiguous N/K-item blocks, the paper's "first k
  /// bits"). K = 1 asks for the full address; K >= 2 asks which block.
  std::uint64_t n_blocks = 1;

  /// The marked set (ground truth the simulated oracle answers from).
  /// Sorted-unique is enforced at validation. Most algorithms need exactly
  /// one entry; bbht / ampamp / multi accept several.
  std::vector<qsim::Index> marked;

  /// Alternative to `marked`: a merit predicate f(x) -> bool, scanned once
  /// (uncounted) by the engine to materialize the marked set. Exactly one
  /// of {marked, predicate} must be set. Bounded to kMaxPredicateItems.
  std::function<bool(qsim::Index)> predicate;

  // -- the shared engine knobs (api/flags.h spells them as CLI flags) --
  qsim::BackendKind backend = qsim::BackendKind::kAuto;
  qsim::NoiseModel noise;    ///< per-query channel (only "noisy" accepts it)
  std::uint64_t seed = 2005; ///< the ONE seed: all randomness derives here

  /// Success floor for planned schedules; <= 0 means the per-algorithm
  /// default (1 - 4/sqrt(N) for grk/multi, 1 - 1/sqrt(N) for noisy).
  /// >= 1 steers "auto" to the sure-success variants.
  double min_success = 0.0;

  /// Explicit iteration overrides. For the partial searchers these are the
  /// Step-1/Step-2 counts; for full searchers l1 alone is the iteration
  /// count. When absent the engine plans (and caches) a schedule.
  std::optional<std::uint64_t> l1;
  std::optional<std::uint64_t> l2;

  /// Measurement shots / Monte-Carlo trials. 1 = a single measured run
  /// (bit-identical to the direct module call); > 1 fans shots or trials
  /// across the running thread's budget where the algorithm supports it.
  std::uint64_t shots = 1;

  /// Largest N a predicate spec may scan.
  static constexpr std::uint64_t kMaxPredicateItems = std::uint64_t{1} << 24;

  /// The paper's setting: a unique marked address.
  static SearchSpec single_target(std::uint64_t n_items,
                                  std::uint64_t n_blocks, qsim::Index target);

  /// The unique target of a single-marked spec. Checked.
  qsim::Index target() const;

  /// The marked set, materializing `predicate` if that is how the spec was
  /// phrased. Checked: exactly one source, non-empty, sorted-unique, in
  /// range.
  std::vector<qsim::Index> resolve_marked() const;

  /// Knob validation (sizes, blocks, shots, noise bounds) WITHOUT touching
  /// the marked set — the engine pairs this with ONE resolve_marked() call
  /// so a predicate spec is scanned exactly once per request.
  void validate_knobs() const;

  /// One-line human rendering ("grk N=4096 K=4 backend=auto seed=7 ...").
  std::string describe() const;
};

/// The unified response: every per-module result struct maps onto these
/// fields (module-specific extras land in `detail`).
struct SearchReport {
  std::string algorithm;      ///< resolved name (after "auto" planning)
  qsim::Index measured = 0;   ///< measured address, or block when block_answer
  bool block_answer = false;  ///< `measured` is a block index, not an address
  bool correct = false;       ///< verified against ground truth; for
                              ///< Monte-Carlo runs, majority-correct
  std::uint64_t queries = 0;  ///< total oracle queries consumed
  std::uint64_t queries_per_trial = 0;  ///< == queries when trials == 1
  std::uint64_t trials = 1;   ///< shots / trajectories actually run
  /// Pre-measurement success probability (single runs) or the empirical
  /// success rate (Monte-Carlo runs).
  double success_probability = 0.0;
  std::uint64_t l1 = 0;       ///< schedule actually run (0 where n/a)
  std::uint64_t l2 = 0;
  /// The engine that ran; unset when the algorithm runs none (classical).
  std::optional<qsim::BackendKind> backend_used;
  bool plan_cache_hit = false;  ///< the schedule came from the plan cache
  // -- the timing split: one wall-clock number would hide queueing delay,
  //    the dominant latency term of a loaded service --
  std::uint64_t queue_ns = 0;  ///< time waiting in the service queue
                               ///< (0 for a direct Engine::run)
  std::uint64_t plan_ns = 0;   ///< schedule search time (~0 on a cache hit)
  std::uint64_t exec_ns = 0;   ///< wall time of the algorithm itself
  std::string detail;          ///< one-line algorithm-specific extras

  /// Multi-line human rendering for CLIs.
  std::string to_string() const;
};

}  // namespace pqs
