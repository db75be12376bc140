// Golden fixture: the FIXED shape of the apply_dense_matrix scratch-buffer
// bug (the shape it shipped with afterwards). The scratch buffer is still a
// `static thread_local`, but the parallel region only touches a raw
// pointer hoisted OUTSIDE the region — every worker writes the calling
// thread's buffer. pqs_lint's thread-local-omp rule must stay quiet.
#include <cstddef>
#include <vector>

namespace fixture {

void apply_dense_matrix_fixed(const double* matrix, const double* in,
                              double* result, std::size_t dim) {
  static thread_local std::vector<double> scratch;
  scratch.resize(dim);
  // Hoisted raw pointer: the region shares the caller's buffer. A comment
  // mentioning scratch inside the region must not trip the lint either.
  double* const out = scratch.data();
#pragma omp parallel for schedule(static)
  for (long r = 0; r < static_cast<long>(dim); ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < dim; ++c) {
      sum += matrix[static_cast<std::size_t>(r) * dim + c] * in[c];
    }
    // (scratch would be wrong here; out aliases the caller's scratch)
    out[static_cast<std::size_t>(r)] = sum;
  }
  for (std::size_t i = 0; i < dim; ++i) {
    result[i] = scratch[i];  // after the region: back on the calling thread
  }
}

}  // namespace fixture
