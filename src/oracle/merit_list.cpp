#include "oracle/merit_list.h"

#include <sstream>

#include "common/check.h"
#include "common/random.h"

namespace pqs::oracle {

MeritList::MeritList(std::uint64_t size, std::uint64_t seed) {
  PQS_CHECK_MSG(size >= 1, "empty merit list");
  Rng rng(seed);
  const auto perm = rng.permutation(size);
  names_by_rank_.resize(size);
  for (std::uint64_t rank = 0; rank < size; ++rank) {
    // Student identity is the permuted id, so sorted-by-rank order reveals
    // nothing about ids.
    names_by_rank_[rank] = "student-" + std::to_string(perm[rank]);
  }
}

const std::string& MeritList::name_at_rank(std::uint64_t rank) const {
  PQS_CHECK_MSG(rank < names_by_rank_.size(), "rank out of range");
  return names_by_rank_[rank];
}

std::string MeritList::fraction_label(std::uint64_t block,
                                      std::uint64_t n_blocks) {
  PQS_CHECK(n_blocks >= 1 && block < n_blocks);
  const double lo = 100.0 * static_cast<double>(block) /
                    static_cast<double>(n_blocks);
  const double hi = 100.0 * static_cast<double>(block + 1) /
                    static_cast<double>(n_blocks);
  std::ostringstream os;
  os.precision(0);
  os.setf(std::ios::fixed);
  if (block == 0) {
    os << "top " << hi << "%";
  } else if (block + 1 == n_blocks) {
    os << "bottom " << (hi - lo) << "%";
  } else {
    os << lo << "%-" << hi << "% band";
  }
  return os.str();
}

}  // namespace pqs::oracle
