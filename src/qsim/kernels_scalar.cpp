// Scalar tier of the SoA segment primitives (qsim/kernels_ops.h).
//
// Plain C++ loops with `omp simd` hints: the portable tier for CPUs without
// AVX2+FMA, and one of the tiers CI pins with PQS_ISA. It runs through the
// same composition as the SIMD tiers (qsim/kernels_soa.cpp, sum cache and
// folded Grover runs included); like them it must agree with the serial
// reference loops in tests/reference_kernels.h to 1e-10. It is not a width-1
// SimdTier (qsim/kernels_simd.h): baseline x86-64 has no FMA, so the
// template's fmadd would become libm fma calls.
#include <cstddef>

#include "qsim/kernels_ops.h"

namespace pqs::qsim::kernels {

namespace {

void scalar_sum(const double* re, const double* im, std::size_t n,
                double* sum_re, double* sum_im) {
  double sr = 0.0, si = 0.0;
#ifdef PQS_HAVE_OPENMP
#pragma omp simd reduction(+ : sr, si)
#endif
  for (std::size_t i = 0; i < n; ++i) {
    sr += re[i];
    si += im[i];
  }
  *sum_re = sr;
  *sum_im = si;
}

double scalar_norm_sq(const double* re, const double* im, std::size_t n) {
  double s = 0.0;
#ifdef PQS_HAVE_OPENMP
#pragma omp simd reduction(+ : s)
#endif
  for (std::size_t i = 0; i < n; ++i) {
    s += re[i] * re[i] + im[i] * im[i];
  }
  return s;
}

void scalar_inner(const double* a_re, const double* a_im, const double* b_re,
                  const double* b_im, std::size_t n, double* sum_re,
                  double* sum_im) {
  double sr = 0.0, si = 0.0;
#ifdef PQS_HAVE_OPENMP
#pragma omp simd reduction(+ : sr, si)
#endif
  for (std::size_t i = 0; i < n; ++i) {
    sr += a_re[i] * b_re[i] + a_im[i] * b_im[i];
    si += a_re[i] * b_im[i] - a_im[i] * b_re[i];
  }
  *sum_re = sr;
  *sum_im = si;
}

void scalar_reflect(double* re, double* im, std::size_t n, double t_re,
                    double t_im, double* sum_re, double* sum_im) {
  double sr = 0.0, si = 0.0;
#ifdef PQS_HAVE_OPENMP
#pragma omp simd reduction(+ : sr, si)
#endif
  for (std::size_t i = 0; i < n; ++i) {
    const double r = t_re - re[i];
    const double s = t_im - im[i];
    re[i] = r;
    im[i] = s;
    sr += r;
    si += s;
  }
  *sum_re = sr;
  *sum_im = si;
}

void scalar_add(double* re, double* im, std::size_t n, double c_re,
                double c_im, double* sum_re, double* sum_im) {
  double sr = 0.0, si = 0.0;
#ifdef PQS_HAVE_OPENMP
#pragma omp simd reduction(+ : sr, si)
#endif
  for (std::size_t i = 0; i < n; ++i) {
    const double r = re[i] + c_re;
    const double s = im[i] + c_im;
    re[i] = r;
    im[i] = s;
    sr += r;
    si += s;
  }
  *sum_re = sr;
  *sum_im = si;
}

void scalar_scale(double* re, double* im, std::size_t n, double s_re,
                  double s_im) {
#ifdef PQS_HAVE_OPENMP
#pragma omp simd
#endif
  for (std::size_t i = 0; i < n; ++i) {
    const double r = re[i];
    const double s = im[i];
    re[i] = s_re * r - s_im * s;
    im[i] = s_re * s + s_im * r;
  }
}

void scalar_gate1(double* re0, double* im0, double* re1, double* im1,
                  std::size_t n, const double m[8]) {
  const double m00r = m[0], m00i = m[1], m01r = m[2], m01i = m[3];
  const double m10r = m[4], m10i = m[5], m11r = m[6], m11i = m[7];
#ifdef PQS_HAVE_OPENMP
#pragma omp simd
#endif
  for (std::size_t i = 0; i < n; ++i) {
    const double a0r = re0[i], a0i = im0[i];
    const double a1r = re1[i], a1i = im1[i];
    re0[i] = m00r * a0r - m00i * a0i + m01r * a1r - m01i * a1i;
    im0[i] = m00r * a0i + m00i * a0r + m01r * a1i + m01i * a1r;
    re1[i] = m10r * a0r - m10i * a0i + m11r * a1r - m11i * a1i;
    im1[i] = m10r * a0i + m10i * a0r + m11r * a1i + m11i * a1r;
  }
}

}  // namespace

const KernelOps& scalar_kernel_ops() {
  static const KernelOps ops{
      .sum = scalar_sum,
      .norm_sq = scalar_norm_sq,
      .inner = scalar_inner,
      .reflect = scalar_reflect,
      .add = scalar_add,
      .scale = scalar_scale,
      .gate1 = scalar_gate1,
  };
  return ops;
}

}  // namespace pqs::qsim::kernels
