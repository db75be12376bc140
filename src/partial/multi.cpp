#include "partial/multi.h"

#include <cmath>

#include "common/check.h"
#include "common/math.h"
#include "partial/optimizer.h"

namespace pqs::partial {

qsim::Index common_block(const oracle::MarkedDatabase& db, unsigned k) {
  PQS_CHECK_MSG(db.num_marked() >= 1, "marked set is empty");
  PQS_CHECK_MSG(is_pow2(db.size()), "need N = 2^n");
  const unsigned n = log2_exact(db.size());
  PQS_CHECK_MSG(k >= 1 && k < n, "need 1 <= k < n");
  const qsim::Index block = db.marked().front() >> (n - k);
  for (const auto m : db.marked()) {
    PQS_CHECK_MSG((m >> (n - k)) == block,
                  "multi-marked partial search requires all marked items "
                  "in one block");
  }
  return block;
}

MultiGrkResult run_partial_search_multi(const oracle::MarkedDatabase& db,
                                        unsigned k, Rng& rng,
                                        const MultiGrkOptions& options) {
  const qsim::Index target_block = common_block(db, k);

  MultiGrkResult result;
  if (options.l1.has_value() && options.l2.has_value()) {
    result.l1 = *options.l1;
    result.l2 = *options.l2;
  } else {
    const double floor_p = options.min_success > 0.0
                               ? options.min_success
                               : default_min_success(db.size());
    const auto opt =
        optimize_integer(db.size(), pow2(k), floor_p, db.num_marked());
    result.l1 = options.l1.value_or(opt.l1);
    result.l2 = options.l2.value_or(opt.l2);
  }

  const std::uint64_t before = db.queries();
  auto backend = qsim::make_backend(
      options.backend,
      qsim::BackendSpec{db.size(), pow2(k), db.marked()});
  result.backend_used = backend->kind();
  db.add_queries(result.l1);  // one query flips the whole marked set
  backend->apply_grover_iterations(qsim::Partition::kGlobal, result.l1);
  db.add_queries(result.l2);
  backend->apply_grover_iterations(qsim::Partition::kBlocks, result.l2);
  db.add_queries(1);  // Step 3 marks the set out with one query
  backend->apply_step3();
  result.queries = db.queries() - before;

  result.block_probability = backend->block_probability(target_block);
  result.marked_probability = backend->marked_probability();
  result.measured_block = backend->sample_block(rng);
  result.correct = result.measured_block == target_block;
  return result;
}

}  // namespace pqs::partial
