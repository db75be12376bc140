#include "partial/noisy.h"

#include <cmath>
#include <functional>
#include <map>
#include <vector>

#include "common/check.h"
#include "common/math.h"
#include "partial/optimizer.h"
#include "qsim/batch.h"

namespace pqs::partial {

namespace {

/// Shared trial harness: validate everything ONCE (model bounds, engine
/// support — a throw inside the OpenMP region would terminate the process),
/// fan the trials across threads with per-shot RNG streams, and settle the
/// database meter with the exact per-trial query count afterwards.
///
/// `trial` runs one trajectory on a fresh backend with this shot's rng,
/// tallies injected errors and oracle queries into its out-params, and
/// returns the measured block.
NoisyRunResult run_trials(
    const oracle::Database& db, const qsim::BackendSpec& spec,
    const qsim::NoiseModel& model, std::uint64_t trials, Rng& rng,
    const NoisyOptions& options, std::string_view what,
    const std::function<qsim::Index(qsim::Backend&, Rng&, std::uint64_t&,
                                    std::uint64_t&)>& trial) {
  PQS_CHECK_MSG(trials > 0, "need at least one trial");
  model.validate();  // once at entry; the per-trial hot loop is check-free
  const qsim::BackendKind resolved =
      qsim::resolve_backend(options.backend, spec, model);
  if (model.enabled()) {
    qsim::require_noise_support(resolved, spec, what);
  }

  // One draw per run: the caller's seed rules.
  const qsim::BatchRunner runner(
      {.seed = rng.next(), .control = options.control});

  const qsim::Index target_block =
      spec.marked.front() / (spec.n_items / spec.n_blocks);
  std::vector<std::uint64_t> injected(trials);
  std::vector<std::uint64_t> queries(trials);
  const auto outcomes = runner.map_shots(
      trials, [&](std::uint64_t shot, Rng& shot_rng) -> qsim::Index {
        auto backend = qsim::make_backend(resolved, spec);
        return trial(*backend, shot_rng, injected[shot], queries[shot]);
      });

  NoisyRunResult result;
  result.trials = trials;
  result.backend_used = resolved;
  result.queries_per_trial = queries.front();
  std::uint64_t correct = 0;
  std::uint64_t injected_total = 0;
  std::map<qsim::Index, std::uint64_t> counts;
  for (std::uint64_t t = 0; t < trials; ++t) {
    // Every trial runs the same schedule; the meter below is exact only
    // because this holds.
    PQS_CHECK(queries[t] == result.queries_per_trial);
    correct += outcomes[t] == target_block ? 1 : 0;
    injected_total += injected[t];
    ++counts[outcomes[t]];
  }
  std::uint64_t modal_count = 0;
  for (const auto& [block, count] : counts) {  // ascending: ties -> smallest
    if (count > modal_count) {
      modal_count = count;
      result.modal_block = block;
    }
  }
  db.add_queries(trials * result.queries_per_trial);
  result.success_rate =
      static_cast<double>(correct) / static_cast<double>(trials);
  result.mean_injected =
      static_cast<double>(injected_total) / static_cast<double>(trials);
  return result;
}

}  // namespace

NoisyRunResult run_noisy_partial_search(const oracle::Database& db, unsigned k,
                                        const qsim::NoiseModel& model,
                                        std::uint64_t trials, Rng& rng,
                                        const NoisyOptions& options) {
  PQS_CHECK_MSG(is_pow2(db.size()), "noisy partial search needs N = 2^n");
  const unsigned n = log2_exact(db.size());
  PQS_CHECK_MSG(k >= 1 && k < n, "need 1 <= k < n");
  const auto spec =
      qsim::BackendSpec::single_target(db.size(), pow2(k), db.target());
  // Reject unsupported engine/model combinations BEFORE paying for the
  // schedule optimizer (which is expensive at large N).
  model.validate();
  if (model.enabled()) {
    qsim::require_noise_support(
        qsim::resolve_backend(options.backend, spec, model),
        spec, "noisy partial search");
  }

  struct Schedule {
    std::uint64_t l1, l2;
  } opt{};
  if (options.l1.has_value() && options.l2.has_value()) {
    opt = {*options.l1, *options.l2};
  } else {
    // Tight floor (error 1/sqrt N): the comparison against full search is
    // only meaningful when both start from a near-1 clean baseline.
    // optimize_schedule keeps this affordable past the exact integer
    // scan's range (the asymptotic geometry takes over above 2^24 items).
    const auto schedule = optimize_schedule(
        db.size(), pow2(k),
        1.0 - 1.0 / std::sqrt(static_cast<double>(db.size())));
    opt = {options.l1.value_or(schedule.l1),
           options.l2.value_or(schedule.l2)};
  }

  return run_trials(
      db, spec, model, trials, rng, options, "noisy partial search",
      [&](qsim::Backend& backend, Rng& shot_rng, std::uint64_t& injected,
          std::uint64_t& queries) {
        for (std::uint64_t i = 0; i < opt.l1; ++i) {
          ++queries;
          backend.apply_oracle();
          injected += backend.apply_noise(model, shot_rng);
          backend.apply_global_diffusion();
        }
        for (std::uint64_t i = 0; i < opt.l2; ++i) {
          ++queries;
          backend.apply_oracle();
          injected += backend.apply_noise(model, shot_rng);
          backend.apply_block_diffusion();
        }
        ++queries;  // Step 3's single oracle query
        injected += backend.apply_noise(model, shot_rng);
        backend.apply_step3();
        return backend.sample_block(shot_rng);
      });
}

NoisyRunResult run_noisy_full_search_block(const oracle::Database& db,
                                           unsigned k,
                                           const qsim::NoiseModel& model,
                                           std::uint64_t trials, Rng& rng,
                                           const NoisyOptions& options) {
  PQS_CHECK_MSG(is_pow2(db.size()), "noisy full search needs N = 2^n");
  const unsigned n = log2_exact(db.size());
  PQS_CHECK_MSG(k >= 1 && k < n, "need 1 <= k < n");
  const auto iterations = grover_optimal_iterations(db.size());
  // The block structure only shapes the final measurement (and the noise
  // channel's block/address bit split); the dynamics are plain Grover.
  const auto spec =
      qsim::BackendSpec::single_target(db.size(), pow2(k), db.target());

  return run_trials(
      db, spec, model, trials, rng, options, "noisy full search",
      [&](qsim::Backend& backend, Rng& shot_rng, std::uint64_t& injected,
          std::uint64_t& queries) {
        for (std::uint64_t i = 0; i < iterations; ++i) {
          ++queries;
          backend.apply_oracle();
          injected += backend.apply_noise(model, shot_rng);
          backend.apply_global_diffusion();
        }
        return backend.sample_block(shot_rng);
      });
}

}  // namespace pqs::partial
