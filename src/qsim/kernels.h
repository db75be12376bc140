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

namespace pqs::qsim::kernels {

/// Apply a 2x2 unitary to qubit `q` (bit q of the index) of an n-qubit state.
void apply_gate1(std::span<Amplitude> state, unsigned n_qubits, unsigned q,
                 const Gate2& g);

/// Apply the gate to qubit `q` only on basis states where every control bit in
/// `control_mask` is 1. `control_mask` must not contain bit q.
void apply_controlled_gate1(std::span<Amplitude> state, unsigned n_qubits,
                            std::uint64_t control_mask, unsigned q,
                            const Gate2& g);

/// Multiply the amplitude of the single basis state `t` by -1.
/// This is the selective inversion I_t = I - 2|t><t| of the paper.
void phase_flip_index(std::span<Amplitude> state, Index t);

/// Multiply by e^{i phi} the amplitude of basis state `t` (generalized
/// selective phase, used by the sure-success variants).
void phase_rotate_index(std::span<Amplitude> state, Index t, double phi);

/// Multiply by -1 every amplitude whose index satisfies the predicate.
/// Templated so the predicate inlines into the O(N) loop: the previous
/// std::function form paid a virtual dispatch per basis state, once per
/// Grover iteration. Prefer phase_flip_indices when the marked set is known
/// explicitly — that path is O(m), not O(N).
template <typename Pred>
void phase_flip_if(std::span<Amplitude> state, Pred&& predicate) {
  parallel_for(static_cast<std::int64_t>(state.size()),
               parallel_threads(state.size()), [&](std::int64_t i) {
    if (predicate(static_cast<Index>(i))) {
      state[static_cast<std::size_t>(i)] = -state[static_cast<std::size_t>(i)];
    }
  });
}

/// Oracle fast path: flip the sign of exactly the listed basis states.
/// `marked_sorted` must be sorted and unique. O(m) instead of O(N).
void phase_flip_indices(std::span<Amplitude> state,
                        std::span<const Index> marked_sorted);

/// Generalized oracle fast path: multiply the listed basis states by
/// e^{i phi}. `marked_sorted` must be sorted and unique. O(m).
void phase_rotate_indices(std::span<Amplitude> state,
                          std::span<const Index> marked_sorted, double phi);

/// Multiply by -1 every amplitude whose index has all bits of `mask` set
/// (a multi-controlled Z on the qubits in `mask`).
void phase_flip_mask_all_ones(std::span<Amplitude> state, std::uint64_t mask);

/// In-place I0 = 2|psi0><psi0| - I where |psi0> is the uniform superposition:
/// a_x <- 2*mean(a) - a_x. ("Inversion about the average".)
void reflect_about_uniform(std::span<Amplitude> state);

/// In-place I_[K] (x) I0,[N/K]: inversion about the average within each
/// contiguous block of `block_size` amplitudes. `block_size` must divide the
/// state size. With block_size == state.size() this is reflect_about_uniform.
void reflect_blocks_about_uniform(std::span<Amplitude> state,
                                  std::size_t block_size);

/// Generalized per-block operator used by the sure-success variants:
/// within each block, a <- a + (e^{i phi} - 1) * mean(a) * ones, i.e. the
/// phase-rotation 2|u><u| pattern  I + (e^{i phi} - 1)|u><u| with u the
/// block-uniform state. phi = pi reproduces reflect_blocks_about_uniform.
void rotate_blocks_about_uniform(std::span<Amplitude> state,
                                 std::size_t block_size, double phi);

/// Reflection about an arbitrary axis state: 2|axis><axis| - I.
/// `axis` must be a unit vector of the same dimension as `state`.
void reflect_about_state(std::span<Amplitude> state,
                         std::span<const Amplitude> axis);

/// Inversion about the average of the amplitudes at indices != t, leaving
/// index t untouched. This is the Step-3 operation of the partial-search
/// algorithm ("controlled on b = 0, invert about the average").
void reflect_non_target_about_their_mean(std::span<Amplitude> state, Index t);

/// Multi-marked generalization of the Step-3 reflection: every index in
/// `marked_sorted` (sorted, unique) keeps its amplitude; the rest are
/// inverted about their common mean. One oracle query marks the whole set.
void reflect_unmarked_about_their_mean(std::span<Amplitude> state,
                                       std::span<const Index> marked_sorted);

/// Pairwise (cascade) summation of amplitudes / of probability mass:
/// rounding error O(log N) ulps instead of the O(N) of a sequential loop.
/// The reflection kernels' means go through these so that thousands of
/// iterations at N = 2^20+ still match the O(K) symmetry backend to 1e-10.
Amplitude sum_pairwise(std::span<const Amplitude> state);
double norm_squared_pairwise(std::span<const Amplitude> state);

/// <a|b>.
Amplitude inner_product(std::span<const Amplitude> a,
                        std::span<const Amplitude> b);

/// sum |a_x|^2.
double norm_squared(std::span<const Amplitude> state);

/// Multiply every amplitude by s.
void scale(std::span<Amplitude> state, Amplitude s);

// ---------------------------------------------------------------------------
// SoA kernels (ISA-dispatched) — the production path.
//
// These mirror the span kernels above on SoaVector's separated re/im planes
// and are what StateVector and DenseBackend actually run. Each O(N) loop
// dispatches through the active ISA tier (qsim/isa.h: scalar, AVX2+FMA,
// AVX-512F) and the reflection/rotation kernels maintain SoaVector's
// block-sum cache so back-to-back same-partition reflections skip their sum
// pass (one memory sweep per kernel instead of two). The span kernels above
// remain the scalar reference implementations the equivalence tests compare
// against — keep both in sync when changing semantics.
//
// All block means and reductions use deterministic fixed-chunk pairwise
// summation (chunk partials combined pairwise), so results are independent
// of the thread count and match the span kernels' recursive pairwise sums to
// well under the 1e-10 dense≡symmetry agreement bar.
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

void apply_gate1(SoaVector& v, unsigned n_qubits, unsigned q, const Gate2& g);
void apply_controlled_gate1(SoaVector& v, unsigned n_qubits,
                            std::uint64_t control_mask, unsigned q,
                            const Gate2& g);
void phase_flip_index(SoaVector& v, Index t);
void phase_rotate_index(SoaVector& v, Index t, double phi);
void phase_flip_indices(SoaVector& v, std::span<const Index> marked_sorted);
void phase_rotate_indices(SoaVector& v, std::span<const Index> marked_sorted,
                          double phi);
void phase_flip_mask_all_ones(SoaVector& v, std::uint64_t mask);

/// Predicate-driven sign flip; the predicate inlines into the O(N) loop.
template <typename Pred>
void phase_flip_if(SoaVector& v, Pred&& predicate) {
  double* re = v.re();
  double* im = v.im();
  parallel_for(static_cast<std::int64_t>(v.size()), parallel_threads(v.size()),
               [&](std::int64_t i) {
    if (predicate(static_cast<Index>(i))) {
      const auto idx = static_cast<std::size_t>(i);
      re[idx] = -re[idx];
      im[idx] = -im[idx];
    }
  });
  v.invalidate_sums();
}

void reflect_about_uniform(SoaVector& v);
void reflect_blocks_about_uniform(SoaVector& v, std::size_t block_size);
void rotate_blocks_about_uniform(SoaVector& v, std::size_t block_size,
                                 double phi);
void reflect_non_target_about_their_mean(SoaVector& v, Index t);
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
Amplitude inner_product(const SoaVector& a, const SoaVector& b);
void scale(SoaVector& v, Amplitude s);

}  // namespace pqs::qsim::kernels
