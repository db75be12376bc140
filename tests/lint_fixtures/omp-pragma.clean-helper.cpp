// pqs_lint fixture path: src/qsim/parallel.h
// Golden fixture: the helper's shape. Its one region takes the team size it
// was handed (parallel_threads(work) or the BatchRunner's shot team) through
// num_threads, and a team of one enters no region at all.
#include <cstdint>

namespace fixture {

template <typename Body>
void parallel_for(std::int64_t n, unsigned threads, Body&& body) {
  if (threads > 1) {
    const int team = static_cast<int>(threads);
#pragma omp parallel for schedule(static) num_threads(team)
    for (std::int64_t i = 0; i < n; ++i) {
      body(i);
    }
    return;
  }
  for (std::int64_t i = 0; i < n; ++i) {
    body(i);
  }
}

}  // namespace fixture
