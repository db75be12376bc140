#include "partial/grk.h"

#include <cmath>

#include "common/check.h"
#include "common/math.h"
#include "partial/optimizer.h"

namespace pqs::partial {

namespace {

/// The GRK spec: 2^n items, 2^k contiguous blocks, a unique target.
qsim::BackendSpec grk_spec(const oracle::Database& db, unsigned k) {
  PQS_CHECK_MSG(is_pow2(db.size()), "partial search needs N = 2^n");
  const unsigned n = log2_exact(db.size());
  PQS_CHECK_MSG(k >= 1 && k < n, "need 1 <= k < n");
  return qsim::BackendSpec::single_target(db.size(), pow2(k), db.target());
}

}  // namespace

std::unique_ptr<qsim::Backend> evolve_partial_search_on_backend(
    const oracle::Database& db, unsigned k, std::uint64_t l1,
    std::uint64_t l2, qsim::BackendKind kind) {
  auto backend = qsim::make_backend(kind, grk_spec(db, k));
  for (std::uint64_t i = 0; i < l1; ++i) {
    db.add_queries(1);
    backend->apply_oracle();            // It
    backend->apply_global_diffusion();  // I0
  }
  for (std::uint64_t i = 0; i < l2; ++i) {
    db.add_queries(1);
    backend->apply_oracle();           // It
    backend->apply_block_diffusion();  // I_[K] (x) I0,[N/K]
  }
  // Step 3: one oracle query marks the target out; inversion about the mean
  // of the remaining amplitudes.
  db.add_queries(1);
  backend->apply_step3();
  return backend;
}

GrkResult run_partial_search(const oracle::Database& db, unsigned k, Rng& rng,
                             const GrkOptions& options) {
  const auto spec = grk_spec(db, k);
  if (options.capture_snapshots) {
    qsim::require_dense(options.backend, "snapshot capture");
  }

  GrkResult result;
  if (options.l1.has_value() && options.l2.has_value()) {
    result.l1 = *options.l1;
    result.l2 = *options.l2;
  } else {
    const double floor_p = options.min_success > 0.0
                               ? options.min_success
                               : default_min_success(db.size());
    const auto opt = optimize_integer(db.size(), pow2(k), floor_p);
    result.l1 = options.l1.value_or(opt.l1);
    result.l2 = options.l2.value_or(opt.l2);
  }

  const std::uint64_t before = db.queries();
  auto backend = qsim::make_backend(options.backend, spec);
  result.backend_used = backend->kind();
  for (std::uint64_t i = 0; i < result.l1; ++i) {
    db.add_queries(1);
    backend->apply_oracle();
    backend->apply_global_diffusion();
  }
  if (options.capture_snapshots) {
    result.snapshots.after_step1 = backend->amplitudes_copy();
  }
  for (std::uint64_t i = 0; i < result.l2; ++i) {
    db.add_queries(1);
    backend->apply_oracle();
    backend->apply_block_diffusion();
  }
  if (options.capture_snapshots) {
    result.snapshots.after_step2 = backend->amplitudes_copy();
  }
  db.add_queries(1);
  backend->apply_step3();
  if (options.capture_snapshots) {
    result.snapshots.after_step3 = backend->amplitudes_copy();
  }

  result.queries = db.queries() - before;
  PQS_CHECK(result.queries == result.l1 + result.l2 + 1);

  result.block_probability = backend->block_probability(backend->target_block());
  result.state_probability = backend->marked_probability();
  result.measured_block = backend->sample_block(rng);
  result.correct = result.measured_block == backend->target_block();
  return result;
}

}  // namespace pqs::partial
