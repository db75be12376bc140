// Adapter: "zalka" — the Theorem-3 optimality analysis (zalka/zalka.h):
// runs the hybrid argument against the standard Grover circuit and reports
// the implied query floor. An analysis, not a search — `measured` stays 0.
#include <memory>
#include <sstream>

#include "api/algorithms/adapter_util.h"
#include "api/algorithms/adapters.h"
#include "zalka/zalka.h"

namespace pqs::api {
namespace {

/// Lemma 2's hybrid check is T circuit runs per sampled y; a fixed small
/// sample keeps the service-path cost bounded (the dedicated bench sweeps
/// the full set). The analysis checks ctx.control before every run.
constexpr std::uint64_t kLemma2Sample = 8;

class ZalkaAlgorithm final : public Algorithm {
 public:
  std::string_view name() const override { return "zalka"; }
  std::string_view summary() const override {
    return "Zalka/Theorem-3 lower-bound analysis of the Grover circuit "
           "(lemma checks + implied query floor)";
  }

  SearchReport run(RunContext& ctx) const override {
    ctx.checkpoint();
    PQS_CHECK_MSG(ctx.spec.shots == 1,
                  "\"zalka\" is a deterministic analysis; drop shots");
    const auto db = database_for(ctx);
    PQS_CHECK_MSG(is_pow2(db.size()),
                  "the Zalka analysis runs on N = 2^n circuits");
    const unsigned n = log2_exact(db.size());
    const std::uint64_t iterations =
        ctx.spec.l1.value_or(grover_optimal_iterations(db.size()));
    zalka::ZalkaOptions options;
    options.lemma2_sample = kLemma2Sample;
    options.backend = ctx.spec.backend;
    options.control = ctx.control;
    const auto r = zalka::analyze_grover(n, iterations, options);

    SearchReport report;
    report.l1 = iterations;
    report.queries = r.queries;
    report.queries_per_trial = r.queries;
    report.success_probability = r.min_success;
    report.correct = r.lemma2_holds;  // the bound's hypotheses verified
    report.backend_used = r.backend_used;
    std::ostringstream detail;
    detail << "implied query floor " << r.implied_query_floor
           << " (Theorem-3 closed form "
           << zalka::theorem3_floor(db.size(), r.eps) << "), eps = " << r.eps;
    report.detail = detail.str();
    return report;
  }
};

}  // namespace

void register_zalka(Registry& registry) {
  registry.register_algorithm(
      "zalka", [] { return std::make_unique<ZalkaAlgorithm>(); });
}

}  // namespace pqs::api
