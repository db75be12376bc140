// Adapter: "interleave" — cheapest alternating G/L schedule beyond the
// paper's two-segment form (partial/interleave.h), executed on the chosen
// engine.
#include <memory>

#include "api/algorithms/adapter_util.h"
#include "api/algorithms/adapters.h"
#include "partial/interleave.h"
#include "partial/optimizer.h"

namespace pqs::api {
namespace {

/// Segment budget of the schedule search (the search is exponential in the
/// segment count; 3 is where the follow-up literature's gains live).
constexpr unsigned kMaxSegments = 3;

class InterleaveAlgorithm final : public Algorithm {
 public:
  std::string_view name() const override { return "interleave"; }
  std::string_view summary() const override {
    return "optimized alternating global/local schedule (up to 3 "
           "segments), executed and measured";
  }

  SearchReport run(RunContext& ctx) const override {
    ctx.checkpoint();
    PQS_CHECK_MSG(ctx.spec.shots == 1,
                  "\"interleave\" runs a single measured trial; drop shots");
    block_bits(ctx.spec);  // checks K = 2^k >= 2
    const auto db = database_for(ctx);
    const double floor =
        effective_floor(ctx.spec, partial::default_min_success(db.size()));
    const auto opt = partial::optimize_interleaved(
        db.size(), ctx.spec.n_blocks, floor, kMaxSegments);

    // Execute the optimized schedule and measure (as run_schedule_on_backend
    // does, which only reports the probability).
    auto backend = qsim::make_backend(
        ctx.spec.backend, qsim::BackendSpec::single_target(
                              db.size(), ctx.spec.n_blocks, db.target()));
    partial::apply_schedule(db, opt.schedule, *backend);
    db.add_queries(1);  // Step 3
    backend->apply_step3();

    SearchReport report;
    report.measured = backend->sample_block(ctx.rng);
    report.block_answer = true;
    report.correct = report.measured == backend->target_block();
    report.queries = opt.queries;
    report.queries_per_trial = opt.queries;
    report.success_probability =
        backend->block_probability(backend->target_block());
    report.backend_used = backend->kind();
    report.detail = "schedule " + opt.schedule.to_string() +
                    " (model success " + std::to_string(opt.success) + ")";
    return report;
  }
};

}  // namespace

void register_interleave(Registry& registry) {
  registry.register_algorithm(
      "interleave", [] { return std::make_unique<InterleaveAlgorithm>(); });
}

}  // namespace pqs::api
