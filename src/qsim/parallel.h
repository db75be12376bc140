// The one owner of parallelism in the library.
//
// Every OpenMP region opens through parallel_for below, and its team size
// comes from parallel_threads(work) (kernels) or from BatchRunner (shots,
// the only fan-out above the kernels). Three rules decide the team:
//
//   * work threshold — a region sweeping fewer than kParallelMinElems
//     elements runs on the calling thread: below that, fork/join costs more
//     than the sweep (BENCH_qsim.json "threading" holds the crossover table
//     the constant is set from);
//   * nesting — inside an active region (a BatchRunner shot body) kernels run
//     on their own thread, and no region is entered at all;
//   * budget — otherwise the team is min(thread budget, chunks). The budget
//     belongs to the calling thread: a Service worker sets
//     hardware_threads() / workers once when it starts, so W workers never
//     ask for more than the machine has; every other thread (an in-process
//     Engine::run, a bench) keeps all of hardware_threads().
//
// The chunk partition (kChunk) and the pairwise combines never depend on the
// team, so every result is byte-identical at any budget.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

namespace pqs::qsim {

/// Fixed reduction chunk of the SoA kernels, in elements: large enough that
/// the per-chunk bookkeeping is noise, small enough that in-order
/// accumulation inside a chunk stays at ulp-scale error. MUST stay a
/// compile-time constant: every deterministic mean in the engine depends on
/// the chunk partition being fixed, whatever the thread count.
inline constexpr std::size_t kChunk = 4096;

/// Regions that sweep fewer elements than this run on the calling thread.
/// 8 chunks (n = 15), from the crossover table in BENCH_qsim.json
/// "threading" (4-core AVX-512 host): one oracle flip plus two reflections
/// takes 18.0 us on 1 thread and 17.2 us on 4 at n = 14, within noise, but
/// 35.2 us against 23.7 us at n = 15, and the team wins at every larger n.
inline constexpr std::size_t kParallelMinElems = 8 * kChunk;

/// Threads this process may use for kernels: the OpenMP runtime's default
/// team size (one per available core unless OMP_NUM_THREADS says
/// otherwise), read once; 1 when built without OpenMP.
unsigned hardware_threads();

/// The calling thread's kernel thread budget (>= 1). Defaults to
/// hardware_threads() until set_thread_budget is called on this thread.
unsigned thread_budget();

/// Set the calling thread's budget; 0 restores the default. The owner of a
/// thread calls this once, before the thread runs kernels.
void set_thread_budget(unsigned threads);

/// Team size for a region sweeping `work_elems` elements: 1 below the work
/// threshold, inside an active parallel region, or without OpenMP;
/// otherwise min(thread_budget(), chunks of work).
unsigned parallel_threads(std::size_t work_elems);

/// Tests/benches only: replace kParallelMinElems (0 = every region may
/// fan out; std::nullopt restores the constant), so the crossover table and
/// the thread-count parity tests can time and run real teams on small
/// states. Do not flip this while kernels run on another thread.
void force_parallel_threshold(std::optional<std::size_t> min_elems);

/// body(i) for every i in [0, n): split statically across `threads`
/// threads, or run on the calling thread — with no OpenMP region entered —
/// when threads <= 1. The body must not throw while threads > 1 (an
/// exception cannot leave an OpenMP region).
template <typename Body>
void parallel_for(std::int64_t n, unsigned threads, Body&& body) {
#ifdef PQS_HAVE_OPENMP
  if (threads > 1) {
    const int team = static_cast<int>(threads);
#pragma omp parallel for schedule(static) num_threads(team)
    for (std::int64_t i = 0; i < n; ++i) {
      body(i);
    }
    return;
  }
#else
  (void)threads;
#endif
  for (std::int64_t i = 0; i < n; ++i) {
    body(i);
  }
}

}  // namespace pqs::qsim
