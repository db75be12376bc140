// The per-ISA segment primitives behind the SoA kernels.
//
// Each tier fills one KernelOps table with implementations of the same
// contiguous-run primitives: qsim/kernels_scalar.cpp with plain loops, and
// kernels_avx2.cpp / kernels_avx512.cpp with the one width-generic SIMD
// source (qsim/kernels_simd.h) over their register traits.
// qsim/kernels_soa.cpp composes the table into the block-structured kernels
// (chunking, OpenMP, the sum cache) the same way for every tier, so this
// table is the only place the tier shows. All pointers operate on
// contiguous runs of the separated re[]/im[] planes of a SoaVector.
//
// The table holds five primitives, each with a caller in the engine: two
// reductions (sum, norm_sq), the two fused update-and-sum passes of the
// reflections and rotations (reflect, add), and gate1, a general 2x2 matrix
// on paired runs that kernels::apply_pauli calls with a constant X, Y or Z
// table (the dense engine's Pauli noise).
//
// The mutating primitives that take sum_re/sum_im out-params accumulate the
// sums of the values they STORE. That is the fused-sum trick this engine is
// built around: a reflection's store pass yields next iteration's block sums
// for free, so steady-state Grover/GRK iterations touch memory once per
// kernel instead of twice (sum pass + update pass). A whole run of Grover
// iterations folds into one reflect or add pass per block
// (kernels::grover_iterations), which refreshes the sums the same way.
#pragma once

#include <cstddef>

#include "qsim/isa.h"

namespace pqs::qsim::kernels {

/// One ISA tier's segment primitives. m[8] packs a 2x2 complex matrix as
/// {m00.re, m00.im, m01.re, m01.im, m10.re, m10.im, m11.re, m11.im}.
struct KernelOps {
  /// sum_re/sum_im <- sum of the segment.
  void (*sum)(const double* re, const double* im, std::size_t n,
              double* sum_re, double* sum_im);
  /// Returns sum of re^2 + im^2 over the segment.
  double (*norm_sq)(const double* re, const double* im, std::size_t n);
  /// a <- t - a (the inversion-about-the-mean update with t = 2*mean);
  /// sum_re/sum_im <- sum of the stored values.
  void (*reflect)(double* re, double* im, std::size_t n, double t_re,
                  double t_im, double* sum_re, double* sum_im);
  /// a <- a + c (the block-rotation update); sums of the stored values.
  void (*add)(double* re, double* im, std::size_t n, double c_re, double c_im,
              double* sum_re, double* sum_im);
  /// 2x2 matrix on the paired runs (re0,im0) / (re1,im1): the caller hands
  /// the two half-planes of an apply_pauli stride block.
  void (*gate1)(double* re0, double* im0, double* re1, double* im1,
                std::size_t n, const double m[8]);
};

/// Tier tables. The AVX accessors are valid to call regardless of build
/// flags but alias the scalar table when their TU was compiled without the
/// target ISA (isa_compiled() reports which happened).
const KernelOps& scalar_kernel_ops();
const KernelOps& avx2_kernel_ops();
const KernelOps& avx512_kernel_ops();

/// True iff the tier's TU was actually built with its target flags.
bool avx2_kernels_compiled();
bool avx512_kernels_compiled();

/// The table for a tier. Checked: the tier must be supported.
const KernelOps& kernel_ops(Isa isa);

/// kernel_ops(active_isa()).
const KernelOps& active_kernel_ops();

}  // namespace pqs::qsim::kernels
