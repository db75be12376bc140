#include "classical/search.h"

#include "common/check.h"

namespace pqs::classical {

ClassicalResult full_search_deterministic(const oracle::Database& db) {
  const std::uint64_t before = db.queries();
  ClassicalResult result;
  const std::uint64_t n = db.size();
  for (Index x = 0; x < n - 1; ++x) {
    if (db.probe(x)) {
      result.answer = x;
      result.correct = x == db.target();
      result.probes = db.queries() - before;
      return result;
    }
  }
  // Not in the first N-1 cells: it must be the last one (zero-error
  // elimination, no probe spent).
  result.answer = n - 1;
  result.correct = result.answer == db.target();
  result.probes = db.queries() - before;
  return result;
}

ClassicalResult full_search_randomized(const oracle::Database& db, Rng& rng,
                                       qsim::RunControl* control) {
  const std::uint64_t before = db.queries();
  ClassicalResult result;
  if (control != nullptr) {
    control->set_work_total(db.size());
  }
  const auto order = rng.permutation(db.size());
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    if (control != nullptr && i % kScanCheckpointInterval == 0) {
      control->throw_if_cancelled();
      if (i > 0) {  // credit the COMPLETED interval, not the upcoming one
        control->add_work_done(kScanCheckpointInterval);
      }
    }
    if (db.probe(order[i])) {
      result.answer = order[i];
      result.correct = result.answer == db.target();
      result.probes = db.queries() - before;
      return result;
    }
  }
  result.answer = order.back();  // elimination
  result.correct = result.answer == db.target();
  result.probes = db.queries() - before;
  return result;
}

ClassicalResult partial_search_deterministic(
    const oracle::Database& db, const oracle::BlockLayout& layout) {
  PQS_CHECK_MSG(layout.num_items() == db.size(), "layout/database mismatch");
  const std::uint64_t before = db.queries();
  ClassicalResult result;
  const std::uint64_t k = layout.num_blocks();
  for (std::uint64_t b = 0; b + 1 < k; ++b) {
    for (Index x = layout.block_begin(b); x < layout.block_end(b); ++x) {
      if (db.probe(x)) {
        result.answer = b;
        result.correct = b == layout.block_of(db.target());
        result.probes = db.queries() - before;
        return result;
      }
    }
  }
  // Probed K-1 full blocks without a hit: the target is in the last block.
  result.answer = k - 1;
  result.correct = result.answer == layout.block_of(db.target());
  result.probes = db.queries() - before;
  return result;
}

ClassicalResult partial_search_randomized(const oracle::Database& db,
                                          const oracle::BlockLayout& layout,
                                          Rng& rng,
                                          qsim::RunControl* control) {
  PQS_CHECK_MSG(layout.num_items() == db.size(), "layout/database mismatch");
  const std::uint64_t before = db.queries();
  ClassicalResult result;
  const std::uint64_t k = layout.num_blocks();
  const std::uint64_t excluded = rng.uniform_below(k);

  // Random probe order over the K-1 kept blocks.
  std::vector<Index> kept;
  kept.reserve(layout.num_items() - layout.block_size());
  for (std::uint64_t b = 0; b < k; ++b) {
    if (b == excluded) {
      continue;
    }
    for (Index x = layout.block_begin(b); x < layout.block_end(b); ++x) {
      kept.push_back(x);
    }
  }
  if (control != nullptr) {
    control->set_work_total(kept.size());
  }
  const auto order = rng.permutation(kept.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (control != nullptr && i % kScanCheckpointInterval == 0) {
      control->throw_if_cancelled();
      if (i > 0) {  // credit the COMPLETED interval, not the upcoming one
        control->add_work_done(kScanCheckpointInterval);
      }
    }
    const Index x = kept[order[i]];
    if (db.probe(x)) {
      result.answer = layout.block_of(x);
      result.correct = result.answer == layout.block_of(db.target());
      result.probes = db.queries() - before;
      return result;
    }
  }
  // Every kept location missed: the target is in the excluded block.
  result.answer = excluded;
  result.correct = result.answer == layout.block_of(db.target());
  result.probes = db.queries() - before;
  return result;
}

}  // namespace pqs::classical
