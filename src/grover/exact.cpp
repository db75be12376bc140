#include "grover/exact.h"

#include <cmath>
#include <complex>

#include "common/check.h"
#include "common/math.h"

namespace pqs::grover {

namespace {
using Cplx = std::complex<double>;
}

ExactSchedule exact_schedule(std::uint64_t n_items) {
  PQS_CHECK(n_items >= 2);
  const double theta = grover_angle(n_items);
  // Largest m with (2m+1) theta <= pi/2: stop short of the target, never
  // overshoot. The 1e-9 guard keeps exact solutions (e.g. N = 4, where
  // (2*1+1) theta = pi/2 precisely) from being rounded down by one.
  const auto m = static_cast<std::uint64_t>(
      std::max(0.0, std::floor((kHalfPi / theta - 1.0) / 2.0 + 1e-9)));
  const double beta = kHalfPi - (2.0 * static_cast<double>(m) + 1.0) * theta;

  ExactSchedule sched;
  sched.plain_iterations = m;
  if (beta < 1e-12) {
    sched.final_step_needed = false;  // landed exactly on the target
    return sched;
  }

  const double s = std::sin(theta);
  const double c = std::cos(theta);
  const double a_t = std::sin((2.0 * static_cast<double>(m) + 1.0) * theta);
  const double a_r = std::cos((2.0 * static_cast<double>(m) + 1.0) * theta);

  // Solve a_r + u (A e^{i phi} + B) = 0 with u = e^{i chi} - 1,
  // A = a_t s c, B = a_r c^2. Eliminating phi (|e^{i phi}| = 1) yields
  // |u|^2 = a_r^2 / (A^2 - B^2 + a_r^2 c^2) = a_r^2 / (s^2 c^2).
  const double u_norm2 = (a_r * a_r) / (s * s * c * c);
  PQS_CHECK_MSG(u_norm2 <= 4.0 + 1e-9,
                "residual angle too large for a single matched iteration");
  const double cos_chi = 1.0 - u_norm2 / 2.0;
  const double sin_chi = clamped_sqrt(1.0 - cos_chi * cos_chi);
  const Cplx u{cos_chi - 1.0, sin_chi};

  const double big_a = a_t * s * c;
  const double big_b = a_r * c * c;
  const Cplx x = (-a_r - u * big_b) / (u * big_a);
  PQS_CHECK_MSG(approx_eq(std::abs(x), 1.0, 1e-6),
                "phase-matching solution is not a pure phase");

  sched.oracle_phase = std::arg(x);
  sched.diffusion_phase = std::atan2(sin_chi, cos_chi);
  return sched;
}

std::uint64_t exact_query_count(std::uint64_t n_items) {
  const auto sched = exact_schedule(n_items);
  return sched.plain_iterations + (sched.final_step_needed ? 1 : 0);
}

std::unique_ptr<qsim::Backend> evolve_exact_on_backend(
    const oracle::Database& db, qsim::BackendKind kind) {
  const auto sched = exact_schedule(db.size());
  // Full search is the K = 1 case of the block structure.
  auto backend = qsim::make_backend(
      kind, qsim::BackendSpec::single_target(db.size(), 1, db.target()));
  db.add_queries(sched.plain_iterations);
  backend->apply_grover_iterations(qsim::Partition::kGlobal,
                                   sched.plain_iterations);  // (I0 It)^l
  if (sched.final_step_needed) {
    db.add_queries(1);
    backend->apply_oracle_phase(sched.oracle_phase);       // O(phi)
    backend->apply_global_rotation(sched.diffusion_phase); // D(chi)
  }
  return backend;
}

SearchResult search_exact(const oracle::Database& db, Rng& rng,
                          const SearchOptions& options) {
  const std::uint64_t before = db.queries();
  const auto backend = evolve_exact_on_backend(db, options.backend);
  SearchResult result;
  result.backend_used = backend->kind();
  result.success_probability = backend->marked_probability();
  result.measured = backend->sample(rng);
  result.correct = result.measured == db.target();
  result.queries = db.queries() - before;
  return result;
}

}  // namespace pqs::grover
