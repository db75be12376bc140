#include "oracle/database.h"

#include "common/check.h"
#include "common/math.h"

namespace pqs::oracle {

Database::Database(std::uint64_t size, Index target)
    : size_(size), target_(target) {
  PQS_CHECK_MSG(size >= 1, "database must contain at least one item");
  PQS_CHECK_MSG(target < size, "target address out of range");
}

Database Database::with_qubits(unsigned n_qubits, Index target) {
  return Database(pow2(n_qubits), target);
}

bool Database::probe(Index x) const {
  PQS_CHECK_MSG(x < size_, "probe address out of range");
  ++queries_;
  return x == target_;
}

}  // namespace pqs::oracle
