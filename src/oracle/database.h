// The database oracle of the paper: f : [N] -> {0,1} with a unique marked
// address t (Section 2.1). Wraps query counting so every algorithm's cost is
// measured by the same meter, classical and quantum alike.
#pragma once

#include <cstdint>

#include "qsim/types.h"

namespace pqs::oracle {

using qsim::Index;

/// A database of size N (any N >= 1, not necessarily a power of two) with a
/// unique marked target address. Query counting is built in: every
/// evaluation of f counts itself, and the quantum algorithms, which apply the
/// oracle on a qsim::Backend, add their queries via `add_queries`.
class Database {
 public:
  Database(std::uint64_t size, Index target);

  /// Convenience for the 2^n-address quantum setting.
  static Database with_qubits(unsigned n_qubits, Index target);

  std::uint64_t size() const { return size_; }
  Index target() const { return target_; }

  /// Classical probe: f(x). Counts one query.
  bool probe(Index x) const;
  /// f(x) without counting (for assertions / verification only).
  bool peek(Index x) const { return x == target_; }

  std::uint64_t queries() const { return queries_; }
  void reset_queries() const { queries_ = 0; }
  void add_queries(std::uint64_t q) const { queries_ += q; }

 private:
  std::uint64_t size_;
  Index target_;
  mutable std::uint64_t queries_ = 0;
};

}  // namespace pqs::oracle
