// Shot sampling from an evolved state: build once per batch, draw per shot.
//
// The paper's answer is the first k bits of the address, so a partial-search
// shot is one draw from the K-entry block distribution of the final state; a
// full measurement is one draw from its N-entry distribution. A ShotSampler
// is built from the state once and then answers any number of draws:
//
//   block shots       a K-entry CumulativeTable (common/cumulative_table.h)
//                     of block masses; a draw is one binary search, O(log K).
//   full-index shots  a table of the masses of the fixed kChunk-element
//                     chunks (qsim/parallel.h); a draw binary-searches the
//                     chunk, then walks at most kChunk elements inside it.
//
// The dense build is one O(N) sweep over the fixed chunk partition, through
// parallel_threads/parallel_for, so the table and every draw from it are
// identical at any thread count. It never holds an N-entry table: O(K) or
// O(N / kChunk) doubles. The symmetry engine's sampler wraps its O(1) class
// draw instead (qsim/backend.cpp), because its K can be 2^60.
//
// Draws are const: a BatchRunner team shares one sampler read-only. A
// sampler borrows the state it was built from (full-index draws read it, and
// every draw assumes it is unchanged), so build a new one after mutating the
// state, and never let it outlive the state.
#pragma once

#include <cstddef>
#include <utility>

#include "common/cumulative_table.h"
#include "common/random.h"
#include "qsim/soa.h"
#include "qsim/types.h"

namespace pqs::qsim {

/// What one shot measures.
enum class Measure {
  kIndex,  ///< the full address
  kBlock,  ///< the block index (the first k bits)
};

/// One outcome per draw, from a state fixed at build time.
class ShotSampler {
 public:
  virtual ~ShotSampler() = default;
  /// One outcome: an address or a block index, per the builder's Measure.
  virtual Index draw(Rng& rng) const = 0;

 protected:
  ShotSampler() = default;
  ShotSampler(const ShotSampler&) = default;
  ShotSampler(ShotSampler&&) = default;
  ShotSampler& operator=(const ShotSampler&) = default;
  ShotSampler& operator=(ShotSampler&&) = default;
};

/// The dense engine's sampler over SoA amplitude planes.
class DenseSampler final : public ShotSampler {
 public:
  /// Block shots over the size()/block_size contiguous blocks. Checked:
  /// block_size divides the size, and the state has positive mass.
  static DenseSampler blocks(const SoaVector& v, std::size_t block_size);
  /// Full-index shots. Checked: the state has positive mass.
  static DenseSampler indices(const SoaVector& v);

  /// The outcome a uniform u in [0, 1) selects; never a zero-mass one.
  Index pick(double u) const;
  Index draw(Rng& rng) const override { return pick(rng.uniform01()); }

 private:
  DenseSampler(const SoaVector* walk, CumulativeTable table)
      : walk_(walk), table_(std::move(table)) {}

  const SoaVector* walk_;  ///< full-index shots: the chunks to walk
  CumulativeTable table_;  ///< block masses, or chunk masses
};

}  // namespace pqs::qsim
