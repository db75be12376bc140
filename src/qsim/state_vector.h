// Dense n-qubit state vector.
//
// Storage is structure-of-arrays (qsim/soa.h): separate 64-byte-aligned
// re[]/im[] planes driven by the ISA-dispatched SoA kernels in
// qsim/kernels.* (scalar / AVX2 / AVX-512, see qsim/isa.h). Block structure
// follows the paper: for K = 2^k blocks, the block index of address x is its
// first k bits, i.e. `x >> (n - k)`.
//
// Algorithm layers should usually not drive this class directly any more:
// qsim/backend.h abstracts the operator set behind pqs::qsim::Backend, with
// this dense representation as one engine (DenseBackend) and the O(K)
// block-symmetric engine (SymmetryBackend) as the other. StateVector remains
// the right type for gate-level circuit work and analyses that manipulate
// arbitrary amplitude vectors (noise, Zalka hybrids, figures); code that
// needs raw amplitudes reads the re()/im() planes or amplitudes_copy().
#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "qsim/gates.h"
#include "qsim/kernels.h"
#include "qsim/sampler.h"
#include "qsim/soa.h"
#include "qsim/types.h"

namespace pqs::qsim {

struct Gate4;  // qsim/gates2.h

class StateVector {
 public:
  /// |0...0> on n qubits.
  explicit StateVector(unsigned n_qubits);

  /// Named constructors.
  static StateVector zero_state(unsigned n_qubits);
  /// |psi0> = (1/sqrt(N)) sum_x |x> — the Grover starting state.
  static StateVector uniform(unsigned n_qubits);
  /// Basis state |x>.
  static StateVector basis(unsigned n_qubits, Index x);
  /// From explicit amplitudes (size must be a power of two). Not normalized.
  static StateVector from_amplitudes(std::vector<Amplitude> amps);

  unsigned num_qubits() const { return n_qubits_; }
  std::size_t dimension() const { return soa_.size(); }

  /// Read-only views of the SoA planes.
  std::span<const double> re() const { return soa_.re_span(); }
  std::span<const double> im() const { return soa_.im_span(); }
  /// Interleaved copy, for analysis code that wants std::complex values.
  std::vector<Amplitude> amplitudes_copy() const {
    return soa_.to_amplitudes();
  }
  Amplitude amplitude(Index x) const;
  /// Overwrite one amplitude (invalidates the kernels' sum cache).
  void set_amplitude(Index x, Amplitude a);

  /// The underlying SoA storage, for the engine/kernel layer.
  SoaVector& soa() { return soa_; }
  const SoaVector& soa() const { return soa_; }

  /// sum |a_x|^2 and friends.
  double norm_squared() const;
  double norm() const;
  /// Rescale to unit norm. Checked: the norm must be positive.
  void normalize();
  /// Max |a_x - b_x| over all basis states.
  double linf_distance(const StateVector& other) const;
  /// <this|other>.
  Amplitude inner(const StateVector& other) const;
  /// |<this|other>|^2.
  double fidelity(const StateVector& other) const;

  /// Probability of observing basis state x.
  double probability(Index x) const;
  /// Probability that a measurement of the first k (most significant) bits
  /// yields `block`, i.e. the mass of amplitudes with x >> (n-k) == block.
  double block_probability(unsigned k, Index block) const;
  /// All K = 2^k block probabilities.
  std::vector<double> block_distribution(unsigned k) const;

  // -- Gate application (delegates to the SoA kernels) --
  void apply_gate1(unsigned q, const Gate2& g);
  void apply_controlled_gate1(std::uint64_t control_mask, unsigned q,
                              const Gate2& g);
  /// Apply a 4x4 unitary to the ordered qubit pair (q_high, q_low), in
  /// place on the SoA planes (kernels::apply_gate2).
  void apply_gate2(unsigned q_high, unsigned q_low, const Gate4& g);
  /// Apply H to every qubit (the Walsh-Hadamard transform W = H^{(x)n}).
  void apply_hadamard_all();
  void phase_flip(Index t);
  void phase_rotate(Index t, double phi);
  /// Oracle fast paths: sign-flip / phase-rotate a sorted marked set. O(m).
  void phase_flip_indices(std::span<const Index> marked_sorted);
  void phase_rotate_indices(std::span<const Index> marked_sorted, double phi);
  /// Sign-flip every index satisfying the predicate (inlined O(N) loop).
  template <typename Pred>
  void phase_flip_if(Pred&& predicate) {
    kernels::phase_flip_if(soa_, std::forward<Pred>(predicate));
  }
  /// Multi-controlled Z: -1 on every index with all bits of `mask` set.
  void phase_flip_mask_all_ones(std::uint64_t mask);
  /// Multiply every amplitude by s.
  void scale(Amplitude s);
  /// I0 = 2|psi0><psi0| - I.
  void reflect_about_uniform();
  /// I_[K] (x) I0,[N/K] with K = 2^k blocks keyed by the first k bits.
  void reflect_blocks_about_uniform(unsigned k);
  /// Generalized block rotation (phi = pi reproduces the reflection).
  void rotate_blocks_about_uniform(unsigned k, double phi);
  /// Step-3 operation: inversion about the average of all non-target states.
  void reflect_non_target_about_their_mean(Index t);
  /// Multi-marked Step-3: every listed index keeps its amplitude.
  void reflect_unmarked_about_their_mean(std::span<const Index> marked_sorted);

  // -- Measurement (state not collapsed) --
  /// Samplers over this state (qsim/sampler.h): one O(N) build, then
  /// draws of a full basis state by |a_x|^2, or of the first k bits (the
  /// block index). They borrow this state; rebuild after mutating it.
  DenseSampler index_sampler() const;
  DenseSampler block_sampler(unsigned k) const;
  /// One shot: build a sampler, draw once.
  Index sample(Rng& rng) const;
  Index sample_block(unsigned k, Rng& rng) const;

  /// Render amplitudes as a signed bar chart (real parts), for the
  /// Figure-1 / Figure-5 style pictures. Only sensible for small N.
  std::string render_real_amplitudes(unsigned k_blocks = 0,
                                     std::size_t half_width = 24) const;

 private:
  unsigned n_qubits_;
  SoaVector soa_;
};

/// The canonical |psi0> constructor for dense code paths that live outside
/// the engine layer (e.g. the Zalka hybrid argument, which manipulates full
/// amplitude vectors by design). Algorithm drivers should go through
/// qsim::Backend instead; this helper marks the deliberate exceptions.
StateVector uniform_state(unsigned n_qubits);

}  // namespace pqs::qsim
