// O(N) state-vector kernels. These are the hot loops; everything else in the
// simulator is bookkeeping around them. Every parallel loop opens through
// qsim/parallel.h, which sizes its team from the work (see "Who owns
// threads" below).
//
// The two reflection kernels are the work-horses of the paper:
//   reflect_about_uniform      = I0        = 2|psi0><psi0| - I
//   reflect_blocks_about_uniform = I_[K] (x) I0,[N/K]   (Section 2.2)
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "qsim/gates.h"
#include "qsim/parallel.h"
#include "qsim/soa.h"
#include "qsim/types.h"

namespace pqs::qsim {
struct Gate4;  // qsim/gates2.h
}  // namespace pqs::qsim

namespace pqs::qsim::kernels {

// ---------------------------------------------------------------------------
// These kernels run on SoaVector's separated re/im planes and are what
// DenseBackend runs. Each O(N) loop dispatches through the active ISA tier
// (qsim/isa.h: scalar, AVX2+FMA, AVX-512F) and the reflection/rotation
// kernels maintain SoaVector's block-sum cache so back-to-back
// same-partition reflections skip their sum pass (one memory sweep per
// kernel instead of two). The scalar tier never reads the cache, so it
// stays a two-pass baseline; tests compare every tier against the serial
// reference loops in tests/reference_kernels.h.
//
// All block means and reductions use deterministic fixed-chunk pairwise
// summation (chunk partials combined pairwise), so results are independent
// of the thread count and stay well under the 1e-10 dense≡symmetry
// agreement bar.
//
// Who owns threads: no kernel picks its own team. Each parallel loop asks
// parallel_threads(elements swept) (qsim/parallel.h) and runs through
// parallel_for. A sweep under kParallelMinElems (8 chunks) stays on the
// calling thread, because fork/join would cost more than the sweep. A kernel
// called inside a BatchRunner shot body runs serially without entering a
// region; BatchRunner is the only place that fans out shots. Otherwise the
// team is the calling thread's budget: a Service worker gets
// hardware_threads() / workers, and any other caller gets every hardware
// thread.
// ---------------------------------------------------------------------------

/// Apply a 2x2 unitary to qubit `q` (bit q of the index) of an n-qubit state.
void apply_gate1(SoaVector& v, unsigned n_qubits, unsigned q, const Gate2& g);

/// Apply the gate to qubit `q` only on basis states where every control bit in
/// `control_mask` is 1. `control_mask` must not contain bit q.
void apply_controlled_gate1(SoaVector& v, unsigned n_qubits,
                            std::uint64_t control_mask, unsigned q,
                            const Gate2& g);

/// Apply a 4x4 unitary to qubits (q_high, q_low) of an n-qubit state. The
/// qubits are arbitrary and distinct; the gate's basis order is |q_high q_low>.
void apply_gate2(SoaVector& v, unsigned n_qubits, unsigned q_high,
                 unsigned q_low, const Gate4& g);

/// Multiply the amplitude of the single basis state `t` by -1 (the selective
/// inversion I_t = I - 2|t><t| of the paper), or by e^{i phi} (the
/// generalized selective phase of the sure-success variants).
void phase_flip_index(SoaVector& v, Index t);
void phase_rotate_index(SoaVector& v, Index t, double phi);

/// Oracle fast paths: flip the sign of, or multiply by e^{i phi}, exactly the
/// listed basis states. `marked_sorted` must be sorted and unique. O(m).
void phase_flip_indices(SoaVector& v, std::span<const Index> marked_sorted);
void phase_rotate_indices(SoaVector& v, std::span<const Index> marked_sorted,
                          double phi);

/// Multiply by -1 every amplitude whose index has all bits of `mask` set
/// (a multi-controlled Z on the qubits in `mask`).
void phase_flip_mask_all_ones(SoaVector& v, std::uint64_t mask);

/// In-place I0 = 2|psi0><psi0| - I where |psi0> is the uniform superposition:
/// a_x <- 2*mean(a) - a_x. ("Inversion about the average".)
void reflect_about_uniform(SoaVector& v);

/// In-place I_[K] (x) I0,[N/K]: inversion about the average within each
/// contiguous block of `block_size` amplitudes. `block_size` must divide the
/// state size. With block_size == v.size() this is reflect_about_uniform.
void reflect_blocks_about_uniform(SoaVector& v, std::size_t block_size);

/// Generalized per-block operator of the sure-success variants: within each
/// block, a <- a + (e^{i phi} - 1) * mean(a), i.e. I + (e^{i phi} - 1)|u><u|
/// with u the block-uniform state. phi = pi is minus the block reflection.
void rotate_blocks_about_uniform(SoaVector& v, std::size_t block_size,
                                 double phi);

/// The Step-3 operation of partial search ("controlled on b = 0, invert
/// about the average"): invert every amplitude except index t about the mean
/// of those amplitudes, leaving t untouched.
void reflect_non_target_about_their_mean(SoaVector& v, Index t);

/// Multi-marked Step 3: every index in `marked_sorted` (sorted, unique) keeps
/// its amplitude; the rest are inverted about their common mean.
void reflect_unmarked_about_their_mean(SoaVector& v,
                                       std::span<const Index> marked_sorted);

/// Deterministic chunked-pairwise sum of all amplitudes. Uses the block-sum
/// cache when it is valid (summing K cached block sums instead of N values).
Amplitude sum_all(const SoaVector& v);
/// sum |a_x|^2 over [lo, lo + len) / over the whole vector.
double norm_squared_range(const SoaVector& v, std::size_t lo,
                          std::size_t len);
double norm_squared(const SoaVector& v);
/// Mass of every block of `block_size` elements (the last block may be
/// shorter), in one sweep. Entry b is bit-identical to
/// norm_squared_range(v, b * block_size, block_size) for a full block.
std::vector<double> block_norms(const SoaVector& v, std::size_t block_size);
/// One shot's walk inside [lo, lo + len), on the calling thread: the first
/// index at which the running sum of |a_x|^2 exceeds `offset`, skipping
/// zero-mass elements. When roundoff leaves the sum at or below `offset`,
/// the last positive-mass index of the range.
Index find_mass_offset(const SoaVector& v, std::size_t lo, std::size_t len,
                       double offset);
/// <a|b>.
Amplitude inner_product(const SoaVector& a, const SoaVector& b);
/// Multiply every amplitude by s.
void scale(SoaVector& v, Amplitude s);

}  // namespace pqs::qsim::kernels
