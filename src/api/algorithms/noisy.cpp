// Adapter: "noisy" — Monte-Carlo partial search under per-query Pauli
// noise (partial/noisy.h). spec.shots is the trajectory count; the
// schedule comes from the plan cache (noisy sweeps repeat one (N, K,
// floor) key per point, exactly the case the cache exists for).
#include <cmath>
#include <memory>
#include <sstream>

#include "api/algorithms/adapter_util.h"
#include "api/algorithms/adapters.h"
#include "partial/noisy.h"
#include "partial/optimizer.h"

namespace pqs::api {
namespace {

class NoisyAlgorithm final : public Algorithm {
 public:
  std::string_view name() const override { return "noisy"; }
  std::string_view summary() const override {
    return "partial search under per-query Pauli noise; success rate over "
           "spec.shots trajectories";
  }
  bool supports_noise() const override { return true; }

  SearchReport run(RunContext& ctx) const override {
    ctx.checkpoint();
    const unsigned k = block_bits(ctx.spec);
    const auto db = database_for(ctx);

    SearchReport report;
    partial::NoisyOptions options;
    options.backend = ctx.spec.backend;
    options.control = ctx.control;  // cancel lands within one trial
    if (ctx.spec.l1.has_value() && ctx.spec.l2.has_value()) {
      options.l1 = ctx.spec.l1;
      options.l2 = ctx.spec.l2;
    } else {
      // The noisy drivers' tight floor (error ~1/sqrt(N)): the comparison
      // against full search needs a near-1 clean baseline.
      const double floor = effective_floor(
          ctx.spec,
          1.0 - 1.0 / std::sqrt(static_cast<double>(db.size())));
      const Plan plan =
          ctx.planner.schedule(db.size(), ctx.spec.n_blocks, floor,
                               /*n_marked=*/1, ctx.control);
      options.l1 = ctx.spec.l1.value_or(plan.schedule.l1);
      options.l2 = ctx.spec.l2.value_or(plan.schedule.l2);
      report.plan_cache_hit = plan.cache_hit;
      report.plan_ns = plan.plan_ns;
    }
    report.l1 = *options.l1;
    report.l2 = *options.l2;
    ctx.checkpoint();  // planning may have taken seconds
    if (ctx.control != nullptr) {
      ctx.control->set_work_total(ctx.spec.shots);
    }

    const auto r = partial::run_noisy_partial_search(
        db, k, ctx.spec.noise, ctx.spec.shots, ctx.rng, options);
    report.trials = r.trials;
    report.queries = r.trials * r.queries_per_trial;
    report.queries_per_trial = r.queries_per_trial;
    report.success_probability = r.success_rate;
    report.backend_used = r.backend_used;
    // Aggregate answer: the block measured most often over the trajectories.
    report.block_answer = true;
    report.measured = r.modal_block;
    report.correct =
        r.modal_block == db.target() >> (log2_exact(db.size()) - k);
    std::ostringstream detail;
    detail << "Monte-Carlo aggregate: success rate " << r.success_rate
           << " over " << r.trials << " trajectories, mean "
           << r.mean_injected << " Pauli error(s) injected per trial";
    report.detail = detail.str();
    return report;
  }
};

}  // namespace

void register_noisy(Registry& registry) {
  registry.register_algorithm(
      "noisy", [] { return std::make_unique<NoisyAlgorithm>(); });
}

}  // namespace pqs::api
