// pqs_lint fixture path: src/qsim/kernels_scalar.cpp
// Golden fixture: a kernel file on the approved OpenMP list opens its own
// full-width region. The file may carry `omp simd` hints, but a parallel
// region here skips the helper's work threshold and the caller's thread
// budget: every call on a one-chunk state pays a fork/join, and every
// Service worker opens a team as wide as the machine.
#include <cstddef>

namespace fixture {

void scale(double* re, double* im, std::size_t n, double s) {
#pragma omp parallel for schedule(static)
  for (long i = 0; i < static_cast<long>(n); ++i) {
    re[i] *= s;
    im[i] *= s;
  }
}

}  // namespace fixture
