#include "qsim/parallel.h"

#include <algorithm>
#include <atomic>

#ifdef PQS_HAVE_OPENMP
#include <omp.h>
#endif

namespace pqs::qsim {

namespace {

/// 0 = the default (hardware_threads()).
thread_local unsigned t_budget = 0;

/// Forced threshold; -1 = use kParallelMinElems. Relaxed: the override is
/// set before kernels run, like force_isa.
std::atomic<std::int64_t> g_forced_min_elems{-1};

}  // namespace

unsigned hardware_threads() {
  static const unsigned threads = [] {
#ifdef PQS_HAVE_OPENMP
    return static_cast<unsigned>(std::max(omp_get_max_threads(), 1));
#else
    return 1u;
#endif
  }();
  return threads;
}

unsigned thread_budget() {
  return t_budget != 0 ? t_budget : hardware_threads();
}

void set_thread_budget(unsigned threads) { t_budget = threads; }

unsigned parallel_threads(std::size_t work_elems) {
#ifdef PQS_HAVE_OPENMP
  const std::int64_t forced =
      g_forced_min_elems.load(std::memory_order_relaxed);
  const std::size_t min_elems =
      forced < 0 ? kParallelMinElems : static_cast<std::size_t>(forced);
  if (work_elems < min_elems || omp_in_parallel() != 0) {
    return 1;
  }
  const std::size_t chunks = (work_elems + kChunk - 1) / kChunk;
  return static_cast<unsigned>(
      std::min<std::size_t>(thread_budget(), std::max<std::size_t>(chunks, 1)));
#else
  (void)work_elems;
  return 1;
#endif
}

void force_parallel_threshold(std::optional<std::size_t> min_elems) {
  g_forced_min_elems.store(
      min_elems.has_value() ? static_cast<std::int64_t>(*min_elems) : -1,
      std::memory_order_relaxed);
}

}  // namespace pqs::qsim
