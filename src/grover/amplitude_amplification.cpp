#include "grover/amplitude_amplification.h"

#include <cmath>

#include "common/check.h"
#include "common/math.h"

namespace pqs::grover {

std::unique_ptr<qsim::Backend> amplify_uniform_on_backend(
    const oracle::MarkedDatabase& db, std::uint64_t iterations,
    qsim::BackendKind kind) {
  PQS_CHECK_MSG(db.num_marked() > 0,
                "amplitude amplification needs a non-empty marked set "
                "(initial success probability a = 0 cannot be amplified)");
  // A|0> = |psi0> and -A S0 A^{-1} = 2|psi0><psi0| - I = I0, so each step
  // is exactly one oracle followed by the global diffusion.
  auto backend =
      qsim::make_backend(kind, qsim::BackendSpec{db.size(), 1, db.marked()});
  db.add_queries(iterations);
  // (-A S0 A^{-1} S_t)^iterations
  backend->apply_grover_iterations(qsim::Partition::kGlobal, iterations);
  return backend;
}

double amplified_success_probability(double initial_probability,
                                     std::uint64_t iterations) {
  PQS_CHECK(initial_probability >= 0.0 && initial_probability <= 1.0);
  const double theta_a = clamped_asin(std::sqrt(initial_probability));
  const double s =
      std::sin((2.0 * static_cast<double>(iterations) + 1.0) * theta_a);
  return s * s;
}

}  // namespace pqs::grover
