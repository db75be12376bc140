#include "qsim/batch.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"
#include "qsim/parallel.h"

namespace pqs::qsim {

std::string ShotReport::to_string(std::size_t max_rows) const {
  // Sort outcomes by count, descending.
  std::vector<std::pair<Index, std::uint64_t>> rows(counts.begin(),
                                                    counts.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second > b.second || (a.second == b.second && a.first < b.first);
  });
  std::ostringstream os;
  os << "shots=" << shots << " queries/shot=" << queries_per_shot << "\n";
  for (std::size_t i = 0; i < rows.size() && i < max_rows; ++i) {
    os << "  " << rows[i].first << ": " << rows[i].second << " ("
       << (100.0 * static_cast<double>(rows[i].second) /
           static_cast<double>(shots))
       << "%)\n";
  }
  if (rows.size() > max_rows) {
    os << "  ... " << rows.size() - max_rows << " more outcomes\n";
  }
  return os.str();
}

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
  RunControl* const control = options_.control;
  // Never more threads than shots: a 1-shot run opens no region, so its
  // kernels keep the caller's budget; with a team, kernels inside the shot
  // bodies run serially (qsim/parallel.h).
  const auto team =
      static_cast<unsigned>(std::min<std::uint64_t>(threads_, shots));
  // Spans bracket the whole fan-out, OUTSIDE the parallel region — the
  // trace wants "when did the shot sweep run", never a per-shot event.
  if (control != nullptr) {
    control->span("shots.begin");
  }
  parallel_for(static_cast<std::int64_t>(shots), team, [&](std::int64_t i) {
    // Exceptions cannot cross an OpenMP region: skip the remaining bodies
    // and throw once, below, after the join.
    if (control != nullptr && control->cancelled()) {
      return;
    }
    const auto shot = static_cast<std::uint64_t>(i);
    Rng rng = shot_rng(shot);
    outcomes[static_cast<std::size_t>(i)] = body(shot, rng);
    if (control != nullptr) {
      control->add_work_done();
    }
  });
  checkpoint(control);
  if (control != nullptr) {
    control->span("shots.end");
  }
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
  return report;
}

ShotReport BatchRunner::draw_shots(const ShotSampler& sampler,
                                   std::uint64_t shots,
                                   std::uint64_t queries_per_shot) const {
  return tally(map_shots(shots,
                         [&sampler](std::uint64_t, Rng& rng) {
                           return sampler.draw(rng);
                         }),
               queries_per_shot);
}

ShotReport BatchRunner::sample_shots(const Backend& backend,
                                     std::uint64_t shots,
                                     std::uint64_t queries_per_shot) const {
  return draw_shots(*backend.sampler(Measure::kIndex), shots,
                    queries_per_shot);
}

ShotReport BatchRunner::sample_block_shots(
    const Backend& backend, std::uint64_t shots,
    std::uint64_t queries_per_shot) const {
  return draw_shots(*backend.sampler(Measure::kBlock), shots,
                    queries_per_shot);
}

}  // namespace pqs::qsim
