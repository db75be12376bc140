// A database with an arbitrary set of marked addresses.
//
// The paper's partial-search problem has a unique target, but two of the
// algorithms it builds on need the general form: BBHT search for an unknown
// number of marked items (paper ref [2]) and multi-target amplitude
// amplification (ref [3]). Query counting matches Database.
#pragma once

#include <cstdint>
#include <vector>

#include "qsim/types.h"

namespace pqs::oracle {

using qsim::Index;

/// f : [N] -> {0,1} with an arbitrary (possibly empty) marked set.
class MarkedDatabase {
 public:
  MarkedDatabase(std::uint64_t size, std::vector<Index> marked);

  std::uint64_t size() const { return size_; }
  std::uint64_t num_marked() const { return marked_.size(); }
  const std::vector<Index>& marked() const { return marked_; }

  /// Uncounted membership test (verification only).
  bool peek(Index x) const;

  std::uint64_t queries() const { return queries_; }
  void reset_queries() const { queries_ = 0; }
  void add_queries(std::uint64_t q) const { queries_ += q; }

 private:
  std::uint64_t size_;
  std::vector<Index> marked_;  // sorted, unique
  mutable std::uint64_t queries_ = 0;
};

}  // namespace pqs::oracle
