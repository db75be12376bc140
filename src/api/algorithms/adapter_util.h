// Shared plumbing of the algorithm adapters: spec -> oracle construction,
// success-floor resolution, and multi-shot measurement of an evolved
// backend. Internal to src/api/algorithms/.
#pragma once

#include <string>

#include "api/registry.h"
#include "common/check.h"
#include "common/math.h"
#include "oracle/database.h"
#include "oracle/marked_set.h"
#include "qsim/backend.h"
#include "qsim/batch.h"

namespace pqs::api {

/// The spec's success floor, or `fallback` when the spec leaves it default.
inline double effective_floor(const SearchSpec& spec, double fallback) {
  return spec.min_success > 0.0 ? spec.min_success : fallback;
}

/// The unique-target oracle of a request (the marked set was materialized
/// once by the Engine). Checked: exactly one marked address.
inline oracle::Database database_for(const RunContext& ctx) {
  PQS_CHECK_MSG(ctx.marked.size() == 1,
                "this algorithm needs a unique marked address (got " +
                    std::to_string(ctx.marked.size()) + ")");
  return oracle::Database(ctx.spec.n_items, ctx.marked.front());
}

/// The arbitrary-marked-set oracle of a request.
inline oracle::MarkedDatabase marked_database_for(const RunContext& ctx) {
  return oracle::MarkedDatabase(ctx.spec.n_items, ctx.marked);
}

/// k with K = 2^k. Checked: the partial searchers need power-of-two blocks.
inline unsigned block_bits(const SearchSpec& spec) {
  PQS_CHECK_MSG(is_pow2(spec.n_blocks) && spec.n_blocks >= 2,
                "this algorithm needs K = 2^k >= 2 blocks");
  return log2_exact(spec.n_blocks);
}

/// Measure an evolved backend spec.shots times (fanned over the thread
/// budget, streams derived from ctx.rng so the spec seed rules) and fill
/// the measurement fields of `report`: `measured` becomes the modal
/// outcome, `correct` compares it against `truth`. Used by adapters for
/// shots > 1; a single shot stays on the module's own sampling path so it
/// is bit-identical to the direct call.
inline void measure_shots(SearchReport& report, const qsim::Backend& backend,
                          RunContext& ctx, bool block_answer,
                          qsim::Index truth) {
  ctx.checkpoint();  // the state is evolved; bail before the shot sweep
  if (ctx.control != nullptr) {
    ctx.control->set_work_total(ctx.spec.shots);
  }
  const qsim::BatchRunner runner(
      {.seed = ctx.rng.next(), .control = ctx.control});
  const auto shot_report =
      block_answer
          ? runner.sample_block_shots(backend, ctx.spec.shots, 0)
          : runner.sample_shots(backend, ctx.spec.shots, 0);
  report.measured = shot_report.mode;
  report.block_answer = block_answer;
  report.correct = shot_report.mode == truth;
  report.trials = ctx.spec.shots;
  report.detail = "mode frequency " +
                  std::to_string(shot_report.mode_frequency) + " over " +
                  std::to_string(ctx.spec.shots) + " shots";
}

}  // namespace pqs::api
