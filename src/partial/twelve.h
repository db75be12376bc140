// The paper's worked example (Section 1.3, Figure 1): a twelve-item database
// split into three blocks, searched with just TWO queries, after which all
// amplitude sits in the target block (and the target itself holds 3/4 of it).
//
// The stage sequence of Figure 1:
//   (A) uniform superposition of the twelve states
//   (B) invert the amplitude of the target state            [query 1]
//   (C) invert about the average in each of the three blocks
//   (D) invert the amplitude of the target state again      [query 2]
//   (E) invert about the global average
//
// N = 12 is not a power of two; the stage pattern runs on qsim::Backend,
// whose engines are dimension-agnostic (blocks are contiguous address
// ranges; only gate-level ops need N = 2^n). Both engines apply: the dense
// engine replays the raw O(N) kernels, the symmetry engine evolves the
// three class amplitudes in O(1) per stage, and the per-stage pictures come
// from Backend::amplitudes_copy.
//
// The module also answers "when does the 2-query trick work in general?":
// exactly when N = 4K/(K - 2) (derived in two_query_instances), which yields
// the paper's (N=12, K=3) and the additional (N=8, K=4).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "qsim/backend.h"
#include "qsim/types.h"

namespace pqs::partial {

/// Amplitudes at each of the five stages (A)-(E) of Figure 1.
struct Figure1Trace {
  static constexpr std::size_t kStages = 5;
  std::array<std::vector<double>, kStages> stages;  ///< real amplitudes
  std::uint64_t queries = 0;                        ///< always 2
  double block_probability = 0.0;   ///< mass of the target block at (E); 1
  double target_probability = 0.0;  ///< |a_t|^2 at (E); 3/4

  /// Multi-line picture in the style of Figure 1 (signed bars per state).
  std::string render() const;
};

/// Run the Figure-1 example. `target` is the marked address in [0, 12).
/// Either engine works (the trace materializes per-stage amplitudes, which
/// both engines expose for N this small).
Figure1Trace run_figure1(qsim::Index target = 7,
                         qsim::BackendKind backend = qsim::BackendKind::kAuto);

/// Run the same 5-stage pattern on a general (N, K) database. Returns the
/// final target-block probability (1.0 exactly iff N = 4K/(K-2)).
double two_query_block_probability(
    std::uint64_t n_items, std::uint64_t k_blocks, qsim::Index target,
    qsim::BackendKind backend = qsim::BackendKind::kAuto);

/// All (N, K) with K | N, N/K >= 2 for which the two-query pattern is exact.
struct TwoQueryInstance {
  std::uint64_t n_items;
  std::uint64_t k_blocks;
};
std::vector<TwoQueryInstance> two_query_instances(std::uint64_t max_items);

}  // namespace pqs::partial
