#include "partial/interleave.h"

#include <cmath>
#include <limits>
#include <sstream>

#include "common/check.h"
#include "common/math.h"

namespace pqs::partial {

std::uint64_t Schedule::iteration_count() const {
  std::uint64_t total = 0;
  for (const auto& seg : segments) {
    total += seg.count;
  }
  return total;
}

std::string Schedule::to_string() const {
  std::ostringstream os;
  bool first = true;
  for (const auto& seg : segments) {
    if (seg.count == 0) {
      continue;
    }
    if (!first) {
      os << ' ';
    }
    os << (seg.global ? 'G' : 'L') << '^' << seg.count;
    first = false;
  }
  if (first) {
    os << "(empty)";
  }
  return os.str();
}

SubspaceState run_schedule(const SubspaceModel& model,
                           const Schedule& schedule) {
  SubspaceState s = model.uniform_start();
  for (const auto& seg : schedule.segments) {
    for (std::uint64_t i = 0; i < seg.count; ++i) {
      s = seg.global ? model.apply_global(s) : model.apply_local(s);
    }
  }
  return model.apply_step3(s);
}

void apply_schedule(const oracle::Database& db, const Schedule& schedule,
                    qsim::Backend& backend) {
  const auto& segs = schedule.segments;
  for (std::size_t s = 0; s < segs.size();) {
    const bool global = segs[s].global;
    std::uint64_t count = 0;
    for (; s < segs.size() && segs[s].global == global; ++s) {
      count += segs[s].count;
    }
    db.add_queries(count);
    backend.apply_grover_iterations(
        global ? qsim::Partition::kGlobal : qsim::Partition::kBlocks, count);
  }
}

double run_schedule_on_backend(const oracle::Database& db, unsigned k,
                               const Schedule& schedule,
                               qsim::BackendKind backend_kind) {
  PQS_CHECK_MSG(is_pow2(db.size()), "backend schedules need N = 2^n");
  const unsigned n = log2_exact(db.size());
  PQS_CHECK_MSG(k >= 1 && k < n, "need 1 <= k < n");
  auto backend = qsim::make_backend(
      backend_kind,
      qsim::BackendSpec::single_target(db.size(), pow2(k), db.target()));
  apply_schedule(db, schedule, *backend);
  db.add_queries(1);  // Step 3
  backend->apply_step3();
  return backend->block_probability(backend->target_block());
}

namespace {

struct SearchContext {
  const SubspaceModel& model;
  double min_success;
  std::uint64_t global_cap;  ///< max useful length of one global segment
  std::uint64_t local_cap;   ///< max useful length of one local segment
  InterleaveOptimum best;
};

/// Depth-first over alternating segments. `s` is the state before this
/// segment; `spent` the iterations so far; `segments_left` how many more
/// segments (including this one) may be opened; `next_global` the type this
/// segment must have (alternation).
void search(SearchContext& ctx, const SubspaceState& s, std::uint64_t spent,
            unsigned segments_left, bool next_global,
            std::vector<ScheduleSegment>& stack) {
  // Option: stop here (empty remaining schedule) — evaluate Step 3.
  {
    const std::uint64_t queries = spent + 1;
    if (queries < ctx.best.queries) {
      const double p =
          ctx.model.apply_step3(s).target_block_probability();
      if (p >= ctx.min_success) {
        ctx.best.queries = queries;
        ctx.best.success = p;
        ctx.best.schedule.segments = stack;
      }
    }
  }
  if (segments_left == 0) {
    return;
  }

  const std::uint64_t cap = next_global ? ctx.global_cap : ctx.local_cap;
  SubspaceState cur = s;
  for (std::uint64_t len = 1; len <= cap; ++len) {
    cur = next_global ? ctx.model.apply_global(cur)
                      : ctx.model.apply_local(cur);
    const std::uint64_t spent_now = spent + len;
    if (spent_now + 1 >= ctx.best.queries) {
      break;  // this branch can no longer beat the incumbent
    }
    stack.push_back(ScheduleSegment{next_global, len});
    search(ctx, cur, spent_now, segments_left - 1, !next_global, stack);
    stack.pop_back();
  }
}

}  // namespace

InterleaveOptimum optimize_interleaved(std::uint64_t n_items,
                                       std::uint64_t k_blocks,
                                       double min_success,
                                       unsigned max_segments) {
  PQS_CHECK_MSG(max_segments >= 1 && max_segments <= 4,
                "max_segments must be in [1, 4] (search is exponential)");
  const SubspaceModel model(n_items, k_blocks);
  const double sqrt_n = std::sqrt(static_cast<double>(n_items));
  const double sqrt_block =
      std::sqrt(static_cast<double>(model.block_size()));

  SearchContext ctx{
      .model = model,
      .min_success = min_success,
      // One global (local) segment longer than a half rotation is wasteful.
      .global_cap =
          static_cast<std::uint64_t>(std::ceil(kHalfPi * sqrt_n / 2.0)) + 2,
      .local_cap =
          static_cast<std::uint64_t>(std::ceil(kHalfPi * sqrt_block)) + 2,
      .best = {},
  };
  ctx.best.queries = std::numeric_limits<std::uint64_t>::max();

  std::vector<ScheduleSegment> stack;
  // Try schedules starting with a global segment and with a local one.
  search(ctx, model.uniform_start(), 0, max_segments, /*next_global=*/true,
         stack);
  search(ctx, model.uniform_start(), 0, max_segments, /*next_global=*/false,
         stack);
  PQS_CHECK_MSG(ctx.best.queries !=
                    std::numeric_limits<std::uint64_t>::max(),
                "no schedule met the success floor");
  return ctx.best;
}

}  // namespace pqs::partial
