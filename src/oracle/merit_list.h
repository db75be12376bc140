// The paper's motivating example (Section 1): a merit list — students sorted
// by rank — where we only care which quartile (or other fraction) a student
// falls in, i.e. the first k bits of the student's position.
//
// This is the merit_list example's data: it names the student at each rank
// and labels each block of ranks, and the example binds them to a search
// spec's predicate.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pqs::oracle {

/// A ranked list of named students. Position i in the list = rank i (0-based,
/// rank 0 is the top student). The searchable "database" maps positions to
/// the predicate "is this position occupied by the student we are asking
/// about?" — exactly the unique-marked-item oracle of the paper.
class MeritList {
 public:
  /// Builds a list of `size` synthetic student names, deterministically
  /// shuffled by `seed` so that name -> rank is not computable without
  /// probing (that is the whole point of the search problem).
  MeritList(std::uint64_t size, std::uint64_t seed);

  std::uint64_t size() const { return names_by_rank_.size(); }
  const std::string& name_at_rank(std::uint64_t rank) const;

  /// Human label for a block under a K-way split, e.g. "top 25%".
  static std::string fraction_label(std::uint64_t block,
                                    std::uint64_t n_blocks);

 private:
  std::vector<std::string> names_by_rank_;
};

}  // namespace pqs::oracle
