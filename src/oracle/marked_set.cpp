#include "oracle/marked_set.h"

#include <algorithm>

#include "common/check.h"

namespace pqs::oracle {

MarkedDatabase::MarkedDatabase(std::uint64_t size, std::vector<Index> marked)
    : size_(size), marked_(std::move(marked)) {
  PQS_CHECK_MSG(size >= 1, "database must contain at least one item");
  std::sort(marked_.begin(), marked_.end());
  marked_.erase(std::unique(marked_.begin(), marked_.end()), marked_.end());
  for (const Index m : marked_) {
    PQS_CHECK_MSG(m < size_, "marked address out of range");
  }
}

bool MarkedDatabase::probe(Index x) const {
  PQS_CHECK_MSG(x < size_, "probe address out of range");
  ++queries_;
  return peek(x);
}

bool MarkedDatabase::peek(Index x) const {
  return std::binary_search(marked_.begin(), marked_.end(), x);
}

}  // namespace pqs::oracle
