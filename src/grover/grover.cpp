#include "grover/grover.h"

#include "common/check.h"
#include "common/math.h"

namespace pqs::grover {

std::unique_ptr<qsim::Backend> evolve_on_backend(const oracle::Database& db,
                                                 std::uint64_t iterations,
                                                 qsim::BackendKind kind) {
  // Full search is the K = 1 case of the block structure.
  auto backend = qsim::make_backend(
      kind, qsim::BackendSpec::single_target(db.size(), 1, db.target()));
  db.add_queries(iterations);
  backend->apply_grover_iterations(qsim::Partition::kGlobal,
                                   iterations);  // (I0 It)^iterations
  return backend;
}

double success_probability_after(const oracle::Database& db,
                                 std::uint64_t iterations,
                                 const SearchOptions& options) {
  const auto backend = evolve_on_backend(db, iterations, options.backend);
  return backend->marked_probability();
}

SearchResult search(const oracle::Database& db, Rng& rng,
                    const SearchOptions& options) {
  return search_with_iterations(db, optimal_iterations(db.size()), rng,
                                options);
}

SearchResult search_with_iterations(const oracle::Database& db,
                                    std::uint64_t iterations, Rng& rng,
                                    const SearchOptions& options) {
  const std::uint64_t before = db.queries();
  const auto backend = evolve_on_backend(db, iterations, options.backend);
  SearchResult result;
  result.backend_used = backend->kind();
  result.success_probability = backend->marked_probability();
  result.measured = backend->sample(rng);
  result.correct = result.measured == db.target();
  result.queries = db.queries() - before;
  return result;
}

std::uint64_t optimal_iterations(std::uint64_t n_items) {
  return grover_optimal_iterations(n_items);
}

double angle_after(std::uint64_t n_items, std::uint64_t iterations) {
  const double theta = grover_angle(n_items);
  return (2.0 * static_cast<double>(iterations) + 1.0) * theta;
}

}  // namespace pqs::grover
