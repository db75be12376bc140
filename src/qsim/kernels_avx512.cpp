// AVX-512F tier of the SoA segment primitives (qsim/kernels_ops.h): the
// register traits SimdTier (qsim/kernels_simd.h) runs its loops on.
//
// Compiled with -mavx512f (per-file flag in CMakeLists.txt); without the
// flag the __AVX512F__ guard degrades this TU to the scalar table.
#include "qsim/kernels_ops.h"

#if defined(__AVX512F__)

#include <immintrin.h>

#include <cstddef>

#include "qsim/kernels_simd.h"

namespace pqs::qsim::kernels {

namespace {

struct Avx512 {
  using Reg = __m512d;
  static constexpr std::size_t kWidth = 8;
  static Reg zero() { return _mm512_setzero_pd(); }
  static Reg set1(double x) { return _mm512_set1_pd(x); }
  static Reg load(const double* p) { return _mm512_loadu_pd(p); }
  static void store(double* p, Reg v) { _mm512_storeu_pd(p, v); }
  static Reg add(Reg a, Reg b) { return _mm512_add_pd(a, b); }
  static Reg sub(Reg a, Reg b) { return _mm512_sub_pd(a, b); }
  static Reg mul(Reg a, Reg b) { return _mm512_mul_pd(a, b); }
  static Reg fmadd(Reg a, Reg b, Reg c) { return _mm512_fmadd_pd(a, b, c); }
  static Reg fnmadd(Reg a, Reg b, Reg c) { return _mm512_fnmadd_pd(a, b, c); }
  static double reduce(Reg v) { return _mm512_reduce_add_pd(v); }
};

constexpr KernelOps kOps = SimdTier<Avx512>::ops();

}  // namespace

const KernelOps& avx512_kernel_ops() { return kOps; }

bool avx512_kernels_compiled() { return true; }

}  // namespace pqs::qsim::kernels

#else  // !__AVX512F__: degrade to the scalar table.

namespace pqs::qsim::kernels {

const KernelOps& avx512_kernel_ops() { return scalar_kernel_ops(); }

bool avx512_kernels_compiled() { return false; }

}  // namespace pqs::qsim::kernels

#endif
