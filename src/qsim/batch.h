// Batched shot execution.
//
// Multi-shot workloads — repeated measurement of one pre-computed state,
// independent noise trajectories, or sweeps over many targets — are
// embarrassingly parallel, but a naive parallel loop over a shared RNG is
// neither reproducible nor correct. BatchRunner is the only place that fans
// shots across threads (qsim/parallel.h; serial without PQS_HAVE_OPENMP),
// and it gives every shot its own deterministic RNG stream derived from
// (seed, shot index), so results are identical for any thread count,
// including 1.
//
// The Engine adapters route their shot sweeps through this layer;
// algorithm-level sweeps (benches, examples) use map_shots directly with
// their own shot body.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/random.h"
#include "qsim/backend.h"
#include "qsim/run_control.h"
#include "qsim/sampler.h"
#include "qsim/types.h"

namespace pqs::qsim {

/// Aggregated result of a multi-shot execution.
struct ShotReport {
  std::map<Index, std::uint64_t> counts;  ///< outcome -> occurrences
  std::uint64_t shots = 0;
  std::uint64_t queries_per_shot = 0;
  /// Most frequent outcome and its empirical probability.
  Index mode = 0;
  double mode_frequency = 0.0;
};

struct BatchOptions {
  /// Worker threads for the shot fan-out; 0 = the constructing thread's
  /// kernel budget (qsim::thread_budget(): all hardware threads, or a
  /// Service worker's share). A fan-out never uses more threads than it has
  /// shots. Ignored (always 1) when built without OpenMP.
  unsigned threads = 0;
  /// Base seed of the per-shot RNG streams.
  std::uint64_t seed = 2005;
  /// Optional cancel/progress handle: map_shots checks it per shot (a
  /// cancelled fan-out skips its remaining shots and throws CancelledError
  /// after the loop joins) and advances work_done once per completed shot.
  /// Never part of a SearchSpec — the Engine/Service attach it at run time.
  RunControl* control = nullptr;
};

/// Deterministic parallel shot executor.
class BatchRunner {
 public:
  explicit BatchRunner(BatchOptions options = {});

  const BatchOptions& options() const { return options_; }
  /// The resolved worker count (>= 1); every fan-out uses at most
  /// min(threads, shots) of them.
  unsigned threads() const { return threads_; }

  /// The RNG stream of one shot: seeded from (options.seed, shot) only, so
  /// any scheduling of the shots reproduces the same outcomes.
  Rng shot_rng(std::uint64_t shot) const;

  /// outcomes[i] = body(i, rng_i), fanned across threads. The body must be
  /// safe to call concurrently for distinct shots (shared inputs read-only).
  /// With options.control attached, every shot first checks the cancel flag
  /// (a cancelled run skips the remaining shot bodies, then throws
  /// CancelledError once the fan-out joins — so cancellation lands within
  /// one in-flight shot per thread) and reports one unit of progress.
  std::vector<Index> map_shots(
      std::uint64_t shots,
      const std::function<Index(std::uint64_t shot, Rng& rng)>& body) const;

  /// Aggregate raw outcomes into a report.
  static ShotReport tally(const std::vector<Index>& outcomes,
                          std::uint64_t queries_per_shot);

  // -- convenience wrappers --
  // Each builds one sampler (qsim/sampler.h) before the fan-out and the
  // team shares it read-only: one O(N) build per batch on the dense engine,
  // then O(log K) per block shot and at most one kChunk walk per full-index
  // shot. Cancellation, progress and the shot_rng streams are map_shots'.
  /// Repeated full measurement of a fixed state.
  ShotReport sample_shots(const Backend& backend, std::uint64_t shots,
                          std::uint64_t queries_per_shot) const;
  /// Repeated measurement of the block index.
  ShotReport sample_block_shots(const Backend& backend, std::uint64_t shots,
                                std::uint64_t queries_per_shot) const;

 private:
  /// One sampler.draw per shot, with map_shots' streams, cancellation and
  /// progress; the report equals tally(map_shots(...)) at any thread count.
  /// Over at most 1024 outcomes each thread counts its chunk of shots into
  /// its own row inside the fan-out; a larger range is tallied afterwards.
  /// Every draw lies in [0, outcomes).
  ShotReport draw_shots(const ShotSampler& sampler, std::uint64_t outcomes,
                        std::uint64_t shots,
                        std::uint64_t queries_per_shot) const;

  BatchOptions options_;
  unsigned threads_ = 1;
};

}  // namespace pqs::qsim
