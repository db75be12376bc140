#include "oracle/blocks.h"

#include "common/check.h"
#include "common/math.h"

namespace pqs::oracle {

BlockLayout::BlockLayout(std::uint64_t n_items, std::uint64_t n_blocks)
    : n_(n_items), k_(n_blocks) {
  PQS_CHECK_MSG(n_items >= 1, "empty address space");
  PQS_CHECK_MSG(n_blocks >= 1 && n_blocks <= n_items,
                "block count out of range");
  PQS_CHECK_MSG(n_items % n_blocks == 0,
                "blocks must partition the address space evenly");
}

std::uint64_t BlockLayout::block_of(Index x) const {
  PQS_CHECK_MSG(x < n_, "address out of range");
  return x / block_size();
}

Index BlockLayout::block_begin(std::uint64_t block) const {
  PQS_CHECK_MSG(block < k_, "block index out of range");
  return block * block_size();
}

Index BlockLayout::block_end(std::uint64_t block) const {
  return block_begin(block) + block_size();
}

}  // namespace pqs::oracle
