// AVX2+FMA tier of the SoA segment primitives (qsim/kernels_ops.h).
//
// Compiled with -mavx2 -mfma (per-file flags in CMakeLists.txt); when the
// compiler lacks those flags the __AVX2__ guard turns this TU into an alias
// of the scalar table and isa_compiled(kAvx2) reports false.
//
// Shape notes (measured on the target fleet, see BENCH_qsim.json):
//   - 8 doubles per plane per iteration with two 256-bit accumulators per
//     plane hides FP-add latency behind the loads;
//   - software prefetch ~1KB ahead buys 15-35% on the bandwidth-bound loops
//     because a single core cannot otherwise keep enough lines in flight;
//   - non-temporal stores were tried and REGRESSED (0.64x) on the reflect
//     kernels — every store here is a plain store, do not "optimize" that.
#include "qsim/kernels_ops.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cstddef>

namespace pqs::qsim::kernels {

namespace {

/// Prefetch distance in bytes (per plane).
constexpr int kPf = 1024;

inline double hsum(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d s2 = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(s2, _mm_unpackhi_pd(s2, s2)));
}

inline void prefetch2(const double* re, const double* im, std::size_t i) {
  _mm_prefetch(reinterpret_cast<const char*>(re + i) + kPf, _MM_HINT_T0);
  _mm_prefetch(reinterpret_cast<const char*>(im + i) + kPf, _MM_HINT_T0);
}

void avx2_sum(const double* re, const double* im, std::size_t n,
              double* sum_re, double* sum_im) {
  __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd();
  __m256d b0 = _mm256_setzero_pd(), b1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    prefetch2(re, im, i);
    a0 = _mm256_add_pd(a0, _mm256_loadu_pd(re + i));
    a1 = _mm256_add_pd(a1, _mm256_loadu_pd(re + i + 4));
    b0 = _mm256_add_pd(b0, _mm256_loadu_pd(im + i));
    b1 = _mm256_add_pd(b1, _mm256_loadu_pd(im + i + 4));
  }
  double sr = hsum(_mm256_add_pd(a0, a1));
  double si = hsum(_mm256_add_pd(b0, b1));
  for (; i < n; ++i) {
    sr += re[i];
    si += im[i];
  }
  *sum_re = sr;
  *sum_im = si;
}

double avx2_norm_sq(const double* re, const double* im, std::size_t n) {
  __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    prefetch2(re, im, i);
    const __m256d r0 = _mm256_loadu_pd(re + i);
    const __m256d r1 = _mm256_loadu_pd(re + i + 4);
    const __m256d s0 = _mm256_loadu_pd(im + i);
    const __m256d s1 = _mm256_loadu_pd(im + i + 4);
    a0 = _mm256_fmadd_pd(r0, r0, a0);
    a1 = _mm256_fmadd_pd(r1, r1, a1);
    a0 = _mm256_fmadd_pd(s0, s0, a0);
    a1 = _mm256_fmadd_pd(s1, s1, a1);
  }
  double s = hsum(_mm256_add_pd(a0, a1));
  for (; i < n; ++i) {
    s += re[i] * re[i] + im[i] * im[i];
  }
  return s;
}

void avx2_inner(const double* a_re, const double* a_im, const double* b_re,
                const double* b_im, std::size_t n, double* sum_re,
                double* sum_im) {
  __m256d acc_r = _mm256_setzero_pd();
  __m256d acc_i = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d ar = _mm256_loadu_pd(a_re + i);
    const __m256d ai = _mm256_loadu_pd(a_im + i);
    const __m256d br = _mm256_loadu_pd(b_re + i);
    const __m256d bi = _mm256_loadu_pd(b_im + i);
    acc_r = _mm256_fmadd_pd(ar, br, acc_r);
    acc_r = _mm256_fmadd_pd(ai, bi, acc_r);
    acc_i = _mm256_fmadd_pd(ar, bi, acc_i);
    acc_i = _mm256_fnmadd_pd(ai, br, acc_i);
  }
  double sr = hsum(acc_r);
  double si = hsum(acc_i);
  for (; i < n; ++i) {
    sr += a_re[i] * b_re[i] + a_im[i] * b_im[i];
    si += a_re[i] * b_im[i] - a_im[i] * b_re[i];
  }
  *sum_re = sr;
  *sum_im = si;
}

void avx2_reflect(double* re, double* im, std::size_t n, double t_re,
                  double t_im, double* sum_re, double* sum_im) {
  const __m256d tr = _mm256_set1_pd(t_re);
  const __m256d ti = _mm256_set1_pd(t_im);
  __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd();
  __m256d b0 = _mm256_setzero_pd(), b1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    prefetch2(re, im, i);
    const __m256d r0 = _mm256_sub_pd(tr, _mm256_loadu_pd(re + i));
    const __m256d r1 = _mm256_sub_pd(tr, _mm256_loadu_pd(re + i + 4));
    const __m256d s0 = _mm256_sub_pd(ti, _mm256_loadu_pd(im + i));
    const __m256d s1 = _mm256_sub_pd(ti, _mm256_loadu_pd(im + i + 4));
    _mm256_storeu_pd(re + i, r0);
    _mm256_storeu_pd(re + i + 4, r1);
    _mm256_storeu_pd(im + i, s0);
    _mm256_storeu_pd(im + i + 4, s1);
    a0 = _mm256_add_pd(a0, r0);
    a1 = _mm256_add_pd(a1, r1);
    b0 = _mm256_add_pd(b0, s0);
    b1 = _mm256_add_pd(b1, s1);
  }
  double sr = hsum(_mm256_add_pd(a0, a1));
  double si = hsum(_mm256_add_pd(b0, b1));
  for (; i < n; ++i) {
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

/// 16 lanes per group (four registers per plane): eight independent
/// subtraction chains cover the add latency on both FP ports, so a group's
/// `steps` updates run from registers at the arithmetic rate.
void avx2_reflect_series(double* re, double* im, std::size_t n,
                         const double* t_re, const double* t_im,
                         std::size_t steps, double* sum_re, double* sum_im) {
  __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd();
  __m256d b0 = _mm256_setzero_pd(), b1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m256d r0 = _mm256_loadu_pd(re + i);
    __m256d r1 = _mm256_loadu_pd(re + i + 4);
    __m256d r2 = _mm256_loadu_pd(re + i + 8);
    __m256d r3 = _mm256_loadu_pd(re + i + 12);
    __m256d s0 = _mm256_loadu_pd(im + i);
    __m256d s1 = _mm256_loadu_pd(im + i + 4);
    __m256d s2 = _mm256_loadu_pd(im + i + 8);
    __m256d s3 = _mm256_loadu_pd(im + i + 12);
    for (std::size_t k = 0; k < steps; ++k) {
      const __m256d tr = _mm256_broadcast_sd(t_re + k);
      const __m256d ti = _mm256_broadcast_sd(t_im + k);
      r0 = _mm256_sub_pd(tr, r0);
      r1 = _mm256_sub_pd(tr, r1);
      r2 = _mm256_sub_pd(tr, r2);
      r3 = _mm256_sub_pd(tr, r3);
      s0 = _mm256_sub_pd(ti, s0);
      s1 = _mm256_sub_pd(ti, s1);
      s2 = _mm256_sub_pd(ti, s2);
      s3 = _mm256_sub_pd(ti, s3);
    }
    _mm256_storeu_pd(re + i, r0);
    _mm256_storeu_pd(re + i + 4, r1);
    _mm256_storeu_pd(re + i + 8, r2);
    _mm256_storeu_pd(re + i + 12, r3);
    _mm256_storeu_pd(im + i, s0);
    _mm256_storeu_pd(im + i + 4, s1);
    _mm256_storeu_pd(im + i + 8, s2);
    _mm256_storeu_pd(im + i + 12, s3);
    a0 = _mm256_add_pd(a0, _mm256_add_pd(r0, r2));
    a1 = _mm256_add_pd(a1, _mm256_add_pd(r1, r3));
    b0 = _mm256_add_pd(b0, _mm256_add_pd(s0, s2));
    b1 = _mm256_add_pd(b1, _mm256_add_pd(s1, s3));
  }
  double sr = hsum(_mm256_add_pd(a0, a1));
  double si = hsum(_mm256_add_pd(b0, b1));
  for (; i < n; ++i) {
    double r = re[i];
    double s = im[i];
    for (std::size_t k = 0; k < steps; ++k) {
      r = t_re[k] - r;
      s = t_im[k] - s;
    }
    re[i] = r;
    im[i] = s;
    sr += r;
    si += s;
  }
  *sum_re = sr;
  *sum_im = si;
}

void avx2_add(double* re, double* im, std::size_t n, double c_re, double c_im,
              double* sum_re, double* sum_im) {
  const __m256d cr = _mm256_set1_pd(c_re);
  const __m256d ci = _mm256_set1_pd(c_im);
  __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd();
  __m256d b0 = _mm256_setzero_pd(), b1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    prefetch2(re, im, i);
    const __m256d r0 = _mm256_add_pd(cr, _mm256_loadu_pd(re + i));
    const __m256d r1 = _mm256_add_pd(cr, _mm256_loadu_pd(re + i + 4));
    const __m256d s0 = _mm256_add_pd(ci, _mm256_loadu_pd(im + i));
    const __m256d s1 = _mm256_add_pd(ci, _mm256_loadu_pd(im + i + 4));
    _mm256_storeu_pd(re + i, r0);
    _mm256_storeu_pd(re + i + 4, r1);
    _mm256_storeu_pd(im + i, s0);
    _mm256_storeu_pd(im + i + 4, s1);
    a0 = _mm256_add_pd(a0, r0);
    a1 = _mm256_add_pd(a1, r1);
    b0 = _mm256_add_pd(b0, s0);
    b1 = _mm256_add_pd(b1, s1);
  }
  double sr = hsum(_mm256_add_pd(a0, a1));
  double si = hsum(_mm256_add_pd(b0, b1));
  for (; i < n; ++i) {
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

void avx2_scale(double* re, double* im, std::size_t n, double s_re,
                double s_im) {
  const __m256d vr = _mm256_set1_pd(s_re);
  const __m256d vi = _mm256_set1_pd(s_im);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    prefetch2(re, im, i);
    const __m256d r = _mm256_loadu_pd(re + i);
    const __m256d s = _mm256_loadu_pd(im + i);
    _mm256_storeu_pd(re + i, _mm256_fmsub_pd(vr, r, _mm256_mul_pd(vi, s)));
    _mm256_storeu_pd(im + i, _mm256_fmadd_pd(vr, s, _mm256_mul_pd(vi, r)));
  }
  for (; i < n; ++i) {
    const double r = re[i];
    const double s = im[i];
    re[i] = s_re * r - s_im * s;
    im[i] = s_re * s + s_im * r;
  }
}

void avx2_gate1(double* re0, double* im0, double* re1, double* im1,
                std::size_t n, const double m[8]) {
  const __m256d m00r = _mm256_set1_pd(m[0]), m00i = _mm256_set1_pd(m[1]);
  const __m256d m01r = _mm256_set1_pd(m[2]), m01i = _mm256_set1_pd(m[3]);
  const __m256d m10r = _mm256_set1_pd(m[4]), m10i = _mm256_set1_pd(m[5]);
  const __m256d m11r = _mm256_set1_pd(m[6]), m11i = _mm256_set1_pd(m[7]);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d a0r = _mm256_loadu_pd(re0 + i);
    const __m256d a0i = _mm256_loadu_pd(im0 + i);
    const __m256d a1r = _mm256_loadu_pd(re1 + i);
    const __m256d a1i = _mm256_loadu_pd(im1 + i);
    // out0 = m00 * a0 + m01 * a1 (complex), out1 likewise with row 1.
    __m256d r = _mm256_mul_pd(m00r, a0r);
    r = _mm256_fnmadd_pd(m00i, a0i, r);
    r = _mm256_fmadd_pd(m01r, a1r, r);
    r = _mm256_fnmadd_pd(m01i, a1i, r);
    __m256d s = _mm256_mul_pd(m00r, a0i);
    s = _mm256_fmadd_pd(m00i, a0r, s);
    s = _mm256_fmadd_pd(m01r, a1i, s);
    s = _mm256_fmadd_pd(m01i, a1r, s);
    _mm256_storeu_pd(re0 + i, r);
    _mm256_storeu_pd(im0 + i, s);
    r = _mm256_mul_pd(m10r, a0r);
    r = _mm256_fnmadd_pd(m10i, a0i, r);
    r = _mm256_fmadd_pd(m11r, a1r, r);
    r = _mm256_fnmadd_pd(m11i, a1i, r);
    s = _mm256_mul_pd(m10r, a0i);
    s = _mm256_fmadd_pd(m10i, a0r, s);
    s = _mm256_fmadd_pd(m11r, a1i, s);
    s = _mm256_fmadd_pd(m11i, a1r, s);
    _mm256_storeu_pd(re1 + i, r);
    _mm256_storeu_pd(im1 + i, s);
  }
  for (; i < n; ++i) {
    const double a0r = re0[i], a0i = im0[i];
    const double a1r = re1[i], a1i = im1[i];
    re0[i] = m[0] * a0r - m[1] * a0i + m[2] * a1r - m[3] * a1i;
    im0[i] = m[0] * a0i + m[1] * a0r + m[2] * a1i + m[3] * a1r;
    re1[i] = m[4] * a0r - m[5] * a0i + m[6] * a1r - m[7] * a1i;
    im1[i] = m[4] * a0i + m[5] * a0r + m[6] * a1i + m[7] * a1r;
  }
}

}  // namespace

const KernelOps& avx2_kernel_ops() {
  static const KernelOps ops{
      .sum = avx2_sum,
      .norm_sq = avx2_norm_sq,
      .inner = avx2_inner,
      .reflect = avx2_reflect,
      .reflect_series = avx2_reflect_series,
      .add = avx2_add,
      .scale = avx2_scale,
      .gate1 = avx2_gate1,
  };
  return ops;
}

bool avx2_kernels_compiled() { return true; }

}  // namespace pqs::qsim::kernels

#else  // !(__AVX2__ && __FMA__): degrade to the scalar table.

namespace pqs::qsim::kernels {

const KernelOps& avx2_kernel_ops() { return scalar_kernel_ops(); }

bool avx2_kernels_compiled() { return false; }

}  // namespace pqs::qsim::kernels

#endif
