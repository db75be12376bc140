// Block layout of the partial-search problem (Section 2.2): the address
// space [N] is partitioned into K equal blocks; address x = (y, z) with
// y in [K] the block index ("first k bits") and z in [N/K] the offset.
#pragma once

#include <cstdint>

#include "qsim/types.h"

namespace pqs::oracle {

using qsim::Index;

/// Partition of [N] into K equal contiguous blocks. N and K need not be
/// powers of two (the Figure-1 example uses N = 12, K = 3), but K | N.
class BlockLayout {
 public:
  BlockLayout(std::uint64_t n_items, std::uint64_t n_blocks);

  std::uint64_t num_items() const { return n_; }
  std::uint64_t num_blocks() const { return k_; }
  std::uint64_t block_size() const { return n_ / k_; }

  /// y: which block does address x belong to?
  std::uint64_t block_of(Index x) const;

  /// First / one-past-last address of a block.
  Index block_begin(std::uint64_t block) const;
  Index block_end(std::uint64_t block) const;

 private:
  std::uint64_t n_;
  std::uint64_t k_;
};

}  // namespace pqs::oracle
