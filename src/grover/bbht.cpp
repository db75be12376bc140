#include "grover/bbht.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/math.h"
#include "qsim/batch.h"

namespace pqs::grover {

namespace {

/// The BBHT spec: the whole database is one block, so the symmetry engine
/// supports ANY marked set (it always lies inside the single block).
qsim::BackendSpec bbht_spec(const oracle::MarkedDatabase& db) {
  return qsim::BackendSpec{db.size(), 1, db.marked()};
}

void check_options(const oracle::MarkedDatabase& db,
                   const BbhtOptions& options) {
  PQS_CHECK_MSG(is_pow2(db.size()), "BBHT runs on power-of-two databases");
  PQS_CHECK_MSG(options.lambda > 1.0 && options.lambda < 4.0 / 3.0 + 1e-9,
                "lambda must lie in (1, 4/3]");
}

/// One full BBHT search against a private query counter, so independent
/// restarts can run concurrently without racing on the database meter.
/// `backend` is this run's engine, or nullptr when the marked set is empty
/// (then every Grover iteration is the identity on |psi0> and measuring is
/// a uniform draw — no engine needed, but each iteration still costs its
/// oracle query). Classical verification goes through db.peek() and is
/// tallied here; the caller settles the meter afterwards.
BbhtResult run_rounds(const oracle::MarkedDatabase& db, qsim::Backend* backend,
                      Rng& rng, const BbhtOptions& options) {
  const double sqrt_n = std::sqrt(static_cast<double>(db.size()));
  const std::uint64_t max_queries =
      options.max_queries != 0
          ? options.max_queries
          : static_cast<std::uint64_t>(std::ceil(9.0 * sqrt_n));

  BbhtResult result;
  std::uint64_t queries = 0;
  double m = 1.0;
  while (queries < max_queries) {
    // Cooperative cancel per round; break instead of throw so this body
    // stays safe inside the batched OpenMP fan-out (the caller's
    // checkpoint converts the flag into CancelledError).
    if (options.control != nullptr && options.control->cancelled()) {
      break;
    }
    ++result.rounds;
    const auto cap = static_cast<std::uint64_t>(std::ceil(m));
    const std::uint64_t j = rng.uniform_below(cap);

    qsim::Index y;
    if (backend != nullptr) {
      backend->reset_uniform();
      backend->apply_grover_iterations(qsim::Partition::kGlobal,
                                       j);  // (I0 It)^j
      y = backend->sample(rng);
    } else {
      y = rng.uniform_below(db.size());
    }
    queries += j;  // the quantum iterations
    queries += 1;  // the classical verification probe
    if (db.peek(y)) {
      result.found = y;
      break;
    }
    m = std::min(options.lambda * m, sqrt_n);
  }
  result.queries = queries;
  return result;
}

}  // namespace

BbhtResult search_unknown(const oracle::MarkedDatabase& db, Rng& rng,
                          const BbhtOptions& options) {
  check_options(db, options);
  std::unique_ptr<qsim::Backend> backend;
  if (db.num_marked() > 0) {
    backend = qsim::make_backend(options.backend, bbht_spec(db));
  }
  const BbhtResult result = run_rounds(db, backend.get(), rng, options);
  db.add_queries(result.queries);
  qsim::checkpoint(options.control);
  return result;
}

BbhtBatchReport search_unknown_batch(const oracle::MarkedDatabase& db,
                                     std::uint64_t shots, Rng& rng,
                                     const BbhtOptions& options) {
  check_options(db, options);
  PQS_CHECK_MSG(shots > 0, "need at least one shot");
  // Resolve the engine BEFORE the fan-out: a CheckFailure thrown inside an
  // OpenMP region would terminate the process instead of reporting.
  std::optional<qsim::BackendKind> resolved;
  if (db.num_marked() > 0) {
    resolved = qsim::resolve_backend(options.backend, bbht_spec(db));
  }

  const qsim::BatchRunner runner(
      {.seed = rng.next(), .control = options.control});
  std::vector<std::uint64_t> queries(shots);
  std::vector<std::uint64_t> rounds(shots);
  std::vector<char> found(shots);
  runner.map_shots(shots, [&](std::uint64_t shot, Rng& rng) -> qsim::Index {
    std::unique_ptr<qsim::Backend> backend;
    if (resolved.has_value()) {
      backend = qsim::make_backend(*resolved, bbht_spec(db));
    }
    const BbhtResult r = run_rounds(db, backend.get(), rng, options);
    queries[shot] = r.queries;
    rounds[shot] = r.rounds;
    found[shot] = r.found.has_value() ? 1 : 0;
    return r.found.value_or(0);
  });

  BbhtBatchReport report;
  report.shots = shots;
  std::uint64_t total_queries = 0;
  std::uint64_t total_rounds = 0;
  for (std::uint64_t s = 0; s < shots; ++s) {
    report.found += found[s];
    total_queries += queries[s];
    total_rounds += rounds[s];
  }
  report.mean_queries =
      static_cast<double>(total_queries) / static_cast<double>(shots);
  report.mean_rounds =
      static_cast<double>(total_rounds) / static_cast<double>(shots);
  db.add_queries(total_queries);
  return report;
}

double bbht_expected_queries_bound(std::uint64_t n_items,
                                   std::uint64_t n_marked) {
  PQS_CHECK(n_marked >= 1 && n_marked <= n_items);
  return 4.5 * std::sqrt(static_cast<double>(n_items) /
                         static_cast<double>(n_marked));
}

}  // namespace pqs::grover
