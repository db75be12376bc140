#include "qsim/batch.h"

#include <algorithm>

#include "common/check.h"
#include "qsim/parallel.h"

namespace pqs::qsim {

namespace {

/// The largest outcome range draw_shots counts into per-chunk rows; a
/// larger one tallies map_shots' outcomes instead.
constexpr std::uint64_t kMaxRowOutcomes = 1024;

/// The fan-out of map_shots and draw_shots: shots [0, shots) in chunks of
/// `chunk` consecutive shots, one parallel_for index per chunk, on
/// min(threads, chunks) threads. Every shot first checks the cancel flag (a
/// cancelled fan-out skips its remaining shots), then runs shot(c, i) and
/// reports one unit of progress. A cancelled fan-out throws CancelledError
/// once it has joined.
template <typename Shot>
void fan_out(std::uint64_t shots, std::uint64_t chunk, unsigned threads,
             RunControl* control, Shot&& shot) {
  const std::uint64_t chunks = (shots + chunk - 1) / chunk;
  // Never more threads than chunks: a 1-shot run opens no region, so its
  // kernels keep the caller's budget; with a team, kernels inside the shot
  // bodies run serially (qsim/parallel.h).
  const auto team =
      static_cast<unsigned>(std::min<std::uint64_t>(threads, chunks));
  // Spans bracket the whole fan-out, OUTSIDE the parallel region — the
  // trace wants "when did the shot sweep run", never a per-shot event.
  if (control != nullptr) {
    control->span("shots.begin");
  }
  parallel_for(static_cast<std::int64_t>(chunks), team, [&](std::int64_t c) {
    const auto uc = static_cast<std::uint64_t>(c);
    const std::uint64_t end = std::min(shots, (uc + 1) * chunk);
    for (std::uint64_t i = uc * chunk; i < end; ++i) {
      // Exceptions cannot cross an OpenMP region: skip the remaining shots
      // and throw once, below, after the join.
      if (control != nullptr && control->cancelled()) {
        return;
      }
      shot(uc, i);
      if (control != nullptr) {
        control->add_work_done();
      }
    }
  });
  checkpoint(control);
  if (control != nullptr) {
    control->span("shots.end");
  }
}

/// Mode and frequency of a report whose counts are final.
void settle_mode(ShotReport& report) {
  std::uint64_t best = 0;
  for (const auto& [outcome, count] : report.counts) {
    if (count > best) {  // ties resolve to the smallest outcome
      best = count;
      report.mode = outcome;
    }
  }
  if (report.shots > 0) {
    report.mode_frequency =
        static_cast<double>(best) / static_cast<double>(report.shots);
  }
}

}  // namespace

BatchRunner::BatchRunner(BatchOptions options) : options_(options) {
#ifdef PQS_HAVE_OPENMP
  threads_ = options_.threads != 0 ? options_.threads : thread_budget();
#else
  threads_ = 1;
#endif
}

Rng BatchRunner::shot_rng(std::uint64_t shot) const {
  // A splitmix64 step decorrelates (seed, shot) pairs; Rng's own
  // splitmix-based state expansion adds the second mixing layer before the
  // bits become xoshiro output.
  std::uint64_t state = options_.seed ^ (shot * 0x9e3779b97f4a7c15ULL);
  const std::uint64_t mixed = splitmix64(state);
  return Rng(mixed);
}

std::vector<Index> BatchRunner::map_shots(
    std::uint64_t shots,
    const std::function<Index(std::uint64_t, Rng&)>& body) const {
  PQS_CHECK_MSG(shots > 0, "need at least one shot");
  std::vector<Index> outcomes(shots);
  fan_out(
      shots, /*chunk=*/1, threads_, options_.control,
      [&](std::uint64_t, std::uint64_t shot) {
        Rng rng = shot_rng(shot);
        outcomes[static_cast<std::size_t>(shot)] = body(shot, rng);
      });
  return outcomes;
}

ShotReport BatchRunner::tally(const std::vector<Index>& outcomes,
                              std::uint64_t queries_per_shot) {
  ShotReport report;
  report.shots = outcomes.size();
  report.queries_per_shot = queries_per_shot;
  for (const Index outcome : outcomes) {
    ++report.counts[outcome];
  }
  settle_mode(report);
  return report;
}

ShotReport BatchRunner::draw_shots(const ShotSampler& sampler,
                                   std::uint64_t outcomes, std::uint64_t shots,
                                   std::uint64_t queries_per_shot) const {
  PQS_CHECK_MSG(shots > 0, "need at least one shot");
  if (outcomes > kMaxRowOutcomes) {
    return tally(map_shots(shots,
                           [&sampler](std::uint64_t, Rng& rng) {
                             return sampler.draw(rng);
                           }),
                 queries_per_shot);
  }
  // One chunk of consecutive shots per thread, each counting into its own
  // row. The counts are integers, so any partition sums to the same report.
  // A row's stride leaves a whole cache line after its counts, so no two
  // threads ever write the same line.
  const std::uint64_t chunk = (shots + threads_ - 1) / threads_;
  const std::uint64_t chunks = (shots + chunk - 1) / chunk;
  constexpr std::uint64_t kLineWords = 64 / sizeof(std::uint64_t);
  const std::uint64_t stride =
      (outcomes + kLineWords - 1) / kLineWords * kLineWords + kLineWords;
  std::vector<std::uint64_t> rows(chunks * stride);
  fan_out(shots, chunk, threads_, options_.control,
          [&](std::uint64_t c, std::uint64_t shot) {
            Rng rng = shot_rng(shot);
            ++rows[c * stride + sampler.draw(rng)];
          });

  ShotReport report;
  report.shots = shots;
  report.queries_per_shot = queries_per_shot;
  for (Index x = 0; x < outcomes; ++x) {
    std::uint64_t count = 0;
    for (std::uint64_t c = 0; c < chunks; ++c) {
      count += rows[c * stride + x];
    }
    if (count > 0) {
      report.counts.emplace_hint(report.counts.end(), x, count);
    }
  }
  settle_mode(report);
  return report;
}

ShotReport BatchRunner::sample_shots(const Backend& backend,
                                     std::uint64_t shots,
                                     std::uint64_t queries_per_shot) const {
  return draw_shots(*backend.sampler(Measure::kIndex), backend.num_items(),
                    shots, queries_per_shot);
}

ShotReport BatchRunner::sample_block_shots(
    const Backend& backend, std::uint64_t shots,
    std::uint64_t queries_per_shot) const {
  return draw_shots(*backend.sampler(Measure::kBlock), backend.num_blocks(),
                    shots, queries_per_shot);
}

}  // namespace pqs::qsim
