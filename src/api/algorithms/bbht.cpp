// Adapter: "bbht" — search with an unknown number of marked items
// (grover/bbht.h). shots > 1 fans independent restarts across threads.
#include <memory>
#include <sstream>

#include "api/algorithms/adapter_util.h"
#include "api/algorithms/adapters.h"
#include "grover/bbht.h"

namespace pqs::api {
namespace {

class BbhtAlgorithm final : public Algorithm {
 public:
  std::string_view name() const override { return "bbht"; }
  std::string_view summary() const override {
    return "BBHT search for an unknown number of marked items, expected "
           "O(sqrt(N/M)) queries";
  }

  SearchReport run(RunContext& ctx) const override {
    ctx.checkpoint();
    const auto db = marked_database_for(ctx);
    const grover::BbhtOptions options{.backend = ctx.spec.backend,
                                      .control = ctx.control};
    SearchReport report;
    report.backend_used = qsim::resolve_backend(
        ctx.spec.backend, qsim::BackendSpec{db.size(), 1, db.marked()});
    if (ctx.spec.shots == 1) {
      const auto r = grover::search_unknown(db, ctx.rng, options);
      report.measured = r.found.value_or(0);
      report.correct = r.found.has_value() && db.peek(*r.found);
      report.queries = r.queries;
      report.queries_per_trial = r.queries;
      report.success_probability = r.found.has_value() ? 1.0 : 0.0;
      report.detail =
          std::to_string(r.rounds) + " generate-and-test round(s)";
      return report;
    }
    if (ctx.control != nullptr) {
      ctx.control->set_work_total(ctx.spec.shots);
    }
    const auto r =
        grover::search_unknown_batch(db, ctx.spec.shots, ctx.rng, options);
    report.trials = r.shots;
    report.queries = db.queries();
    report.queries_per_trial =
        static_cast<std::uint64_t>(r.mean_queries + 0.5);
    report.success_probability =
        static_cast<double>(r.found) / static_cast<double>(r.shots);
    report.correct = 2 * r.found > r.shots;  // majority of restarts found
    std::ostringstream detail;
    detail << "mean " << r.mean_queries << " queries / " << r.mean_rounds
           << " rounds per restart (bound "
           << grover::bbht_expected_queries_bound(db.size(),
                                                  db.num_marked())
           << ")";
    report.detail = detail.str();
    return report;
  }
};

}  // namespace

void register_bbht(Registry& registry) {
  registry.register_algorithm(
      "bbht", [] { return std::make_unique<BbhtAlgorithm>(); });
}

}  // namespace pqs::api
