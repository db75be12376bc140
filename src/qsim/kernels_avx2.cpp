// AVX2+FMA tier of the SoA segment primitives (qsim/kernels_ops.h): the
// register traits SimdTier (qsim/kernels_simd.h) runs its loops on.
//
// Compiled with -mavx2 -mfma (per-file flags in CMakeLists.txt); when the
// compiler lacks those flags the __AVX2__ guard turns this TU into an alias
// of the scalar table and isa_compiled(kAvx2) reports false.
#include "qsim/kernels_ops.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cstddef>

#include "qsim/kernels_simd.h"

namespace pqs::qsim::kernels {

namespace {

struct Avx2 {
  using Reg = __m256d;
  static constexpr std::size_t kWidth = 4;
  static Reg zero() { return _mm256_setzero_pd(); }
  static Reg set1(double x) { return _mm256_set1_pd(x); }
  static Reg load(const double* p) { return _mm256_loadu_pd(p); }
  static void store(double* p, Reg v) { _mm256_storeu_pd(p, v); }
  static Reg add(Reg a, Reg b) { return _mm256_add_pd(a, b); }
  static Reg sub(Reg a, Reg b) { return _mm256_sub_pd(a, b); }
  static Reg mul(Reg a, Reg b) { return _mm256_mul_pd(a, b); }
  static Reg fmadd(Reg a, Reg b, Reg c) { return _mm256_fmadd_pd(a, b, c); }
  static Reg fnmadd(Reg a, Reg b, Reg c) { return _mm256_fnmadd_pd(a, b, c); }
  static double reduce(Reg v) {
    const __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    const __m128d s2 = _mm_add_pd(lo, hi);
    return _mm_cvtsd_f64(_mm_add_sd(s2, _mm_unpackhi_pd(s2, s2)));
  }
};

constexpr KernelOps kOps = SimdTier<Avx2>::ops();

}  // namespace

const KernelOps& avx2_kernel_ops() { return kOps; }

bool avx2_kernels_compiled() { return true; }

}  // namespace pqs::qsim::kernels

#else  // !(__AVX2__ && __FMA__): degrade to the scalar table.

namespace pqs::qsim::kernels {

const KernelOps& avx2_kernel_ops() { return scalar_kernel_ops(); }

bool avx2_kernels_compiled() { return false; }

}  // namespace pqs::qsim::kernels

#endif
