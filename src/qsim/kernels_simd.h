// The SIMD tiers of the SoA segment primitives (qsim/kernels_ops.h), written
// once for any register width.
//
// SimdTier<V> holds every KernelOps primitive as a loop over the registers
// of a traits type V. A tier TU (kernels_avx2.cpp, kernels_avx512.cpp)
// supplies V in an unnamed namespace and returns SimdTier<V>::ops(); the
// intrinsics live only there, so this header carries no target flags and
// every width runs the same loops in the same order. V provides:
//
//   Reg, kWidth (doubles per register), zero(), set1(x), load(p),
//   store(p, r), add(a, b), sub(a, b), mul(a, b),
//   fmadd(a, b, c) = a*b + c, fnmadd(a, b, c) = c - a*b,
//   fmsub(a, b, c) = a*b - c, reduce(r) = sum of the lanes.
//
// Shape notes (measured on the target fleet, see BENCH_qsim.json):
//   - the streaming loops take 2*W doubles per plane per iteration with two
//     accumulators per plane, which hides FP-add latency behind the loads;
//   - software prefetch ~1KB ahead buys 15-35% on the bandwidth-bound loops
//     because a single core cannot otherwise keep enough lines in flight;
//   - non-temporal stores were tried and REGRESSED (0.64x) on the reflect
//     kernels — every store here is a plain store, do not "optimize" that;
//   - elements past the last full register group run the scalar tail of
//     the same primitive, so every length is valid, 0 included.
#pragma once

#include <cstddef>

#include "qsim/kernels_ops.h"

namespace pqs::qsim::kernels {

template <typename V>
struct SimdTier {
  using Reg = typename V::Reg;
  static constexpr std::size_t W = V::kWidth;

  static void sum(const double* re, const double* im, std::size_t n,
                  double* sum_re, double* sum_im) {
    Reg a0 = V::zero(), a1 = V::zero();
    Reg b0 = V::zero(), b1 = V::zero();
    std::size_t i = 0;
    for (; i + 2 * W <= n; i += 2 * W) {
      prefetch2(re, im, i);
      a0 = V::add(a0, V::load(re + i));
      a1 = V::add(a1, V::load(re + i + W));
      b0 = V::add(b0, V::load(im + i));
      b1 = V::add(b1, V::load(im + i + W));
    }
    double sr = V::reduce(V::add(a0, a1));
    double si = V::reduce(V::add(b0, b1));
    for (; i < n; ++i) {
      sr += re[i];
      si += im[i];
    }
    *sum_re = sr;
    *sum_im = si;
  }

  static double norm_sq(const double* re, const double* im, std::size_t n) {
    Reg a0 = V::zero(), a1 = V::zero();
    std::size_t i = 0;
    for (; i + 2 * W <= n; i += 2 * W) {
      prefetch2(re, im, i);
      const Reg r0 = V::load(re + i);
      const Reg r1 = V::load(re + i + W);
      const Reg s0 = V::load(im + i);
      const Reg s1 = V::load(im + i + W);
      a0 = V::fmadd(r0, r0, a0);
      a1 = V::fmadd(r1, r1, a1);
      a0 = V::fmadd(s0, s0, a0);
      a1 = V::fmadd(s1, s1, a1);
    }
    double s = V::reduce(V::add(a0, a1));
    for (; i < n; ++i) {
      s += re[i] * re[i] + im[i] * im[i];
    }
    return s;
  }

  static void inner(const double* a_re, const double* a_im,
                    const double* b_re, const double* b_im, std::size_t n,
                    double* sum_re, double* sum_im) {
    Reg acc_r = V::zero();
    Reg acc_i = V::zero();
    std::size_t i = 0;
    for (; i + W <= n; i += W) {
      const Reg ar = V::load(a_re + i);
      const Reg ai = V::load(a_im + i);
      const Reg br = V::load(b_re + i);
      const Reg bi = V::load(b_im + i);
      acc_r = V::fmadd(ar, br, acc_r);
      acc_r = V::fmadd(ai, bi, acc_r);
      acc_i = V::fmadd(ar, bi, acc_i);
      acc_i = V::fnmadd(ai, br, acc_i);
    }
    double sr = V::reduce(acc_r);
    double si = V::reduce(acc_i);
    for (; i < n; ++i) {
      sr += a_re[i] * b_re[i] + a_im[i] * b_im[i];
      si += a_re[i] * b_im[i] - a_im[i] * b_re[i];
    }
    *sum_re = sr;
    *sum_im = si;
  }

  static void reflect(double* re, double* im, std::size_t n, double t_re,
                      double t_im, double* sum_re, double* sum_im) {
    const Reg tr = V::set1(t_re);
    const Reg ti = V::set1(t_im);
    Reg a0 = V::zero(), a1 = V::zero();
    Reg b0 = V::zero(), b1 = V::zero();
    std::size_t i = 0;
    for (; i + 2 * W <= n; i += 2 * W) {
      prefetch2(re, im, i);
      const Reg r0 = V::sub(tr, V::load(re + i));
      const Reg r1 = V::sub(tr, V::load(re + i + W));
      const Reg s0 = V::sub(ti, V::load(im + i));
      const Reg s1 = V::sub(ti, V::load(im + i + W));
      V::store(re + i, r0);
      V::store(re + i + W, r1);
      V::store(im + i, s0);
      V::store(im + i + W, s1);
      a0 = V::add(a0, r0);
      a1 = V::add(a1, r1);
      b0 = V::add(b0, s0);
      b1 = V::add(b1, s1);
    }
    double sr = V::reduce(V::add(a0, a1));
    double si = V::reduce(V::add(b0, b1));
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

  static void add(double* re, double* im, std::size_t n, double c_re,
                  double c_im, double* sum_re, double* sum_im) {
    const Reg cr = V::set1(c_re);
    const Reg ci = V::set1(c_im);
    Reg a0 = V::zero(), a1 = V::zero();
    Reg b0 = V::zero(), b1 = V::zero();
    std::size_t i = 0;
    for (; i + 2 * W <= n; i += 2 * W) {
      prefetch2(re, im, i);
      const Reg r0 = V::add(cr, V::load(re + i));
      const Reg r1 = V::add(cr, V::load(re + i + W));
      const Reg s0 = V::add(ci, V::load(im + i));
      const Reg s1 = V::add(ci, V::load(im + i + W));
      V::store(re + i, r0);
      V::store(re + i + W, r1);
      V::store(im + i, s0);
      V::store(im + i + W, s1);
      a0 = V::add(a0, r0);
      a1 = V::add(a1, r1);
      b0 = V::add(b0, s0);
      b1 = V::add(b1, s1);
    }
    double sr = V::reduce(V::add(a0, a1));
    double si = V::reduce(V::add(b0, b1));
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

  static void scale(double* re, double* im, std::size_t n, double s_re,
                    double s_im) {
    const Reg vr = V::set1(s_re);
    const Reg vi = V::set1(s_im);
    std::size_t i = 0;
    for (; i + W <= n; i += W) {
      prefetch2(re, im, i);
      const Reg r = V::load(re + i);
      const Reg s = V::load(im + i);
      V::store(re + i, V::fmsub(vr, r, V::mul(vi, s)));
      V::store(im + i, V::fmadd(vr, s, V::mul(vi, r)));
    }
    for (; i < n; ++i) {
      const double r = re[i];
      const double s = im[i];
      re[i] = s_re * r - s_im * s;
      im[i] = s_re * s + s_im * r;
    }
  }

  static void gate1(double* re0, double* im0, double* re1, double* im1,
                    std::size_t n, const double m[8]) {
    const Reg m00r = V::set1(m[0]), m00i = V::set1(m[1]);
    const Reg m01r = V::set1(m[2]), m01i = V::set1(m[3]);
    const Reg m10r = V::set1(m[4]), m10i = V::set1(m[5]);
    const Reg m11r = V::set1(m[6]), m11i = V::set1(m[7]);
    std::size_t i = 0;
    for (; i + W <= n; i += W) {
      const Reg a0r = V::load(re0 + i);
      const Reg a0i = V::load(im0 + i);
      const Reg a1r = V::load(re1 + i);
      const Reg a1i = V::load(im1 + i);
      // out0 = m00 * a0 + m01 * a1 (complex), out1 likewise with row 1.
      Reg r = V::mul(m00r, a0r);
      r = V::fnmadd(m00i, a0i, r);
      r = V::fmadd(m01r, a1r, r);
      r = V::fnmadd(m01i, a1i, r);
      Reg s = V::mul(m00r, a0i);
      s = V::fmadd(m00i, a0r, s);
      s = V::fmadd(m01r, a1i, s);
      s = V::fmadd(m01i, a1r, s);
      V::store(re0 + i, r);
      V::store(im0 + i, s);
      r = V::mul(m10r, a0r);
      r = V::fnmadd(m10i, a0i, r);
      r = V::fmadd(m11r, a1r, r);
      r = V::fnmadd(m11i, a1i, r);
      s = V::mul(m10r, a0i);
      s = V::fmadd(m10i, a0r, s);
      s = V::fmadd(m11r, a1i, s);
      s = V::fmadd(m11i, a1r, s);
      V::store(re1 + i, r);
      V::store(im1 + i, s);
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

  static constexpr KernelOps ops() {
    return KernelOps{
        .sum = sum,
        .norm_sq = norm_sq,
        .inner = inner,
        .reflect = reflect,
        .add = add,
        .scale = scale,
        .gate1 = gate1,
    };
  }

 private:
  /// Prefetch distance in bytes (per plane).
  static constexpr std::size_t kPrefetchBytes = 1024;

  /// Read prefetch into all cache levels (prefetcht0 on x86).
  static void prefetch2(const double* re, const double* im, std::size_t i) {
    __builtin_prefetch(reinterpret_cast<const char*>(re + i) + kPrefetchBytes,
                       0, 3);
    __builtin_prefetch(reinterpret_cast<const char*>(im + i) + kPrefetchBytes,
                       0, 3);
  }
};

}  // namespace pqs::qsim::kernels
