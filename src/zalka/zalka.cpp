#include "zalka/zalka.h"

#include <algorithm>
#include <cmath>
#include <variant>
#include <vector>

#include "common/check.h"
#include "common/math.h"
#include "qsim/kernels.h"

namespace pqs::zalka {

double state_angle(const qsim::SoaVector& a, const qsim::SoaVector& b) {
  return clamped_acos(std::abs(qsim::kernels::inner_product(a, b)));
}

namespace {

/// The block count of the circuit's block ops (1 without any), which the
/// backend's block structure must match.
std::uint64_t circuit_blocks(const qsim::Circuit& circuit) {
  for (const qsim::Op& op : circuit.ops()) {
    if (const auto* d = std::get_if<qsim::BlockDiffusionOp>(&op)) {
      return pow2(d->k);
    }
    if (const auto* r = std::get_if<qsim::BlockRotationOp>(&op)) {
      return pow2(r->k);
    }
  }
  return 1;
}

/// One run of the circuit on `backend` from |psi0>, with the first
/// `identity_until` queries replaced by the identity: an op reads the
/// oracle iff it costs a query. `before_query(i)` sees the backend just
/// before query i (identity or not). Returns the final state.
template <typename BeforeQuery>
qsim::SoaVector run(qsim::Backend& backend, const qsim::Circuit& circuit,
                    std::uint64_t identity_until, qsim::RunControl* control,
                    BeforeQuery&& before_query) {
  qsim::checkpoint(control);
  backend.reset_uniform();
  std::uint64_t queries_seen = 0;
  for (const qsim::Op& op : circuit.ops()) {
    const std::uint64_t cost = qsim::op_query_cost(op);
    if (cost > 0) {
      before_query(queries_seen);
    }
    if (cost == 0 || queries_seen >= identity_until) {
      qsim::apply_op(backend, op);
    }
    queries_seen += cost;
  }
  if (control != nullptr) {
    control->add_work_done();
  }
  return qsim::SoaVector::from_amplitudes(backend.amplitudes_copy());
}

}  // namespace

ZalkaReport analyze_circuit(const qsim::Circuit& circuit,
                            const ZalkaOptions& options) {
  qsim::require_dense(options.backend, "the Zalka hybrid argument");
  ZalkaReport report;
  report.n_qubits = circuit.num_qubits();
  report.n_items = pow2(report.n_qubits);
  report.queries = circuit.query_count();
  PQS_CHECK_MSG(report.queries >= 1, "circuit makes no queries");

  const auto n = report.n_items;
  const auto nd = static_cast<double>(n);
  const std::uint64_t t_queries = report.queries;
  const std::uint64_t sample = options.lemma2_sample == 0
                                   ? n
                                   : std::min<std::uint64_t>(
                                         options.lemma2_sample, n);
  const std::uint64_t stride = n / sample;
  if (options.control != nullptr) {
    options.control->set_work_total(1 + n + sample * t_queries);
  }
  const auto no_snapshots = [](std::uint64_t) {};
  const auto backend_for = [&](qsim::Index y) {
    return qsim::make_backend(
        qsim::BackendKind::kDense,
        qsim::BackendSpec::single_target(n, circuit_blocks(circuit), y));
  };

  // All-identity run (oracle target irrelevant): |phi_i> before each query.
  // Lemma 3 sums S_i = sum_y arcsin sqrt(p_{i,y}) over every y; Lemma 2
  // needs p_{i,y} only for the sampled y.
  report.per_query_sums.resize(t_queries, 0.0);
  std::vector<double> p_sampled(t_queries * sample);  // [i * sample + s]
  const auto identity_backend = backend_for(0);
  const qsim::SoaVector phi_final = run(
      *identity_backend, circuit, /*identity_until=*/t_queries,
      options.control, [&](std::uint64_t i) {
        const auto amps = identity_backend->amplitudes_copy();
        double sum = 0.0;
        for (qsim::Index y = 0; y < n; ++y) {
          sum += clamped_asin(std::sqrt(std::norm(amps[y])));
        }
        report.per_query_sums[i] = sum;
        report.max_per_query_sum = std::max(report.max_per_query_sum, sum);
        for (std::uint64_t s = 0; s < sample; ++s) {
          p_sampled[i * sample + s] = std::norm(amps[s * stride]);
        }
      });
  report.lemma3_ceiling = std::sqrt(nd) * (1.0 + 1.0 / nd);

  // Per-oracle runs: |phi^y_T>, final angles, success probabilities.
  report.min_success = 1.0;
  for (qsim::Index y = 0; y < n; ++y) {
    const auto backend = backend_for(y);
    const qsim::SoaVector phi_y = run(*backend, circuit, /*identity_until=*/0,
                                      options.control, no_snapshots);
    report.sum_final_angles += state_angle(phi_final, phi_y);
    report.min_success = std::min(report.min_success, backend->probability(y));
  }
  report.eps = 1.0 - report.min_success;
  report.lemma1_floor =
      nd * kHalfPi *
      (1.0 - std::sqrt(std::max(report.eps, 0.0)) - std::pow(nd, -0.25));
  report.implied_query_floor =
      report.sum_final_angles / (2.0 * report.lemma3_ceiling);

  // Lemma 2: hybrid angle steps, on a sample of y values. The i = 0 hybrid
  // (every query identity) is the all-identity run itself.
  for (std::uint64_t s = 0; s < sample; ++s) {
    const auto backend = backend_for(s * stride);
    qsim::SoaVector prev = phi_final;
    for (std::uint64_t i = 1; i <= t_queries; ++i) {
      qsim::SoaVector cur = run(*backend, circuit,
                                /*identity_until=*/t_queries - i,
                                options.control, no_snapshots);
      const double lhs = state_angle(prev, cur);
      const double rhs = 2.0 * clamped_asin(std::sqrt(
                                   p_sampled[(t_queries - i) * sample + s]));
      const double slack = lhs - rhs;
      report.lemma2_worst_slack =
          std::max(report.lemma2_worst_slack, slack);
      if (slack > 1e-9) {
        report.lemma2_holds = false;
      }
      prev = std::move(cur);
    }
  }
  return report;
}

ZalkaReport analyze_grover(unsigned n_qubits, std::uint64_t iterations,
                           const ZalkaOptions& options) {
  return analyze_circuit(qsim::make_grover_circuit(n_qubits, iterations),
                         options);
}

double theorem3_floor(std::uint64_t n_items, double eps) {
  const auto nd = static_cast<double>(n_items);
  return kQuarterPi * std::sqrt(nd) *
         (1.0 - (std::sqrt(std::max(eps, 0.0)) + std::pow(nd, -0.25)));
}

}  // namespace pqs::zalka
