// Golden fixture: the thread_local bug through the helper instead of a
// pragma. The parallel_for lambda runs on the team's threads, so writing
// the `static thread_local` scratch inside it fills per-worker buffers
// nobody reads. pqs_lint's thread-local-omp rule must treat the call's
// lambda as a parallel region.
#include <cstddef>
#include <cstdint>
#include <vector>

namespace fixture {

void row_sums(const double* matrix, double* result, std::size_t dim,
              unsigned threads) {
  static thread_local std::vector<double> scratch;
  scratch.resize(dim);
  parallel_for(static_cast<std::int64_t>(dim), threads, [&](std::int64_t r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < dim; ++c) {
      sum += matrix[static_cast<std::size_t>(r) * dim + c];
    }
    scratch[static_cast<std::size_t>(r)] = sum;
  });
  for (std::size_t i = 0; i < dim; ++i) {
    result[i] = scratch[i];
  }
}

}  // namespace fixture
