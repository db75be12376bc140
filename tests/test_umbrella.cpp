// Compile-and-smoke test of the umbrella header: every public subsystem is
// reachable through a single include, and a miniature end-to-end run works.
#include "pqs/pqs.h"

#include <gtest/gtest.h>

namespace pqs {
namespace {

TEST(Umbrella, EndToEndMiniPipeline) {
  Rng rng(1);
  const oracle::Database db = oracle::Database::with_qubits(8, 129);

  // One symbol from each subsystem, exercised for real.
  EXPECT_TRUE(is_pow2(db.size()));                                 // common
  const auto backend = qsim::make_backend(                          // qsim
      qsim::BackendKind::kDense,
      qsim::BackendSpec::single_target(db.size(), 4, db.target()));
  EXPECT_NEAR(backend->norm_squared(), 1.0, 1e-12);
  const auto grover_run = grover::search_with_iterations(         // grover
      db, grover::optimal_iterations(db.size()), rng);
  EXPECT_GT(grover_run.success_probability, 0.9);
  db.reset_queries();
  const auto partial_run = partial::run_partial_search(db, 2, rng, {});
  EXPECT_LT(partial_run.queries, grover_run.queries);              // partial
  const auto classic = classical::full_search_deterministic(db);   // classical
  EXPECT_TRUE(classic.correct);
  EXPECT_GT(partial::lower_bound_coefficient(4), 0.0);             // bounds
  EXPECT_GT(zalka::theorem3_floor(256, 0.0), 0.0);                 // zalka
}

}  // namespace
}  // namespace pqs
