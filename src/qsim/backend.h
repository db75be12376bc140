// Pluggable simulation backends.
//
// Every algorithm in this repository drives the same handful of operators:
// the oracle phase I_t, the global diffusion I0 = 2|psi0><psi0| - I, the
// per-block diffusion I_[K] (x) I0,[N/K], their generalized (phase-rotation)
// forms, and the Step-3 "invert the unmarked amplitudes about their mean".
// `Backend` abstracts those operators away from the state representation so
// the algorithm layers (grover/, partial/, reduction/, zalka/) can dispatch
// between engines at runtime:
//
//   DenseBackend     the exact O(N)-per-operation amplitude array, built on
//                    qsim/kernels. Works for ANY database size N (the kernels
//                    are dimension-agnostic; blocks are the K contiguous
//                    ranges of N/K addresses), supports every operator and
//                    arbitrary marked sets, and is the only engine that
//                    computes exact Pauli-noise trajectories. On every ISA
//                    tier, a run of Grover iterations
//                    (apply_grover_iterations) folds into one affine pass per
//                    block over the state, whatever its length.
//                    Capacity-limited to N <= 2^kMaxQubits.
//
//   SymmetryBackend  the O(K)-per-operation engine. The partial-search state
//                    is fully block-symmetric: at every point of the
//                    algorithm the N amplitudes take only three distinct
//                    values — one on the marked set, one on the rest of the
//                    target block, one on all other blocks (Section 3's
//                    invariant subspace, here tracked as literal per-state
//                    amplitudes rather than subspace coordinates, so results
//                    match DenseBackend to machine precision). Every operator
//                    above preserves that structure, which makes huge-N
//                    simulation (n = 60+ qubits) exact and effectively free.
//
// Both engines implement every operator below, so none throws because of
// the engine it runs on (Pauli noise has shape limits of its own, see
// backend_supports_noise). Circuits (qsim/circuit.h) are built from the
// same operators, so apply_circuit runs on either engine.
//
// Pick an engine with BackendKind: kDense / kSymmetry force one, kAuto takes
// the cheapest exact one. resolve_backend holds that one rule: the symmetry
// engine whenever it supports the spec (the marked set lies in one block)
// and the request runs no noise model; the dense engine otherwise, unless
// the state would not fit in memory. A noiseless symmetry state is exact,
// so amplitude snapshots and the Zalka hybrid argument run on either
// engine.
// Construction goes through make_backend(kind, spec).
//
// Thread-safety: backends are single-owner mutable state. The batched
// execution layer (qsim/batch.h) gives each shot its own backend or builds
// one sampler over a const backend and draws every shot from it with
// per-shot RNG streams.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "qsim/circuit.h"
#include "qsim/noise.h"
#include "qsim/sampler.h"
#include "qsim/types.h"

namespace pqs::qsim {

/// Which simulation engine to use.
enum class BackendKind {
  kAuto,      ///< the cheapest exact engine (resolve_backend's rule)
  kDense,     ///< full amplitude array, O(N) per operation
  kSymmetry,  ///< block-symmetric amplitudes, O(K) per operation
};

/// Parse "auto" / "dense" / "symmetry" (as the --backend CLI flag does).
/// Throws CheckFailure on anything else.
BackendKind parse_backend_kind(std::string_view name);
std::string to_string(BackendKind kind);

/// Largest database a DenseBackend will allocate (2^kMaxQubits items).
inline constexpr std::uint64_t kMaxDenseItems = std::uint64_t{1} << kMaxQubits;

/// The static shape of a simulation: database size, block structure, and the
/// marked set. Blocks are the K contiguous ranges of N/K addresses; for the
/// power-of-two case this coincides with the paper's "first k bits of the
/// address" convention (block of x = x >> (n - k)).
struct BackendSpec {
  std::uint64_t n_items = 0;   ///< N >= 2; any value, not only powers of two
  std::uint64_t n_blocks = 1;  ///< K >= 1; must divide N
  std::vector<Index> marked;   ///< sorted, unique, non-empty

  /// The paper's setting: a unique marked address.
  static BackendSpec single_target(std::uint64_t n_items,
                                   std::uint64_t n_blocks, Index target);
};

/// Which diffusion a Grover iteration applies after the oracle.
enum class Partition {
  kGlobal,  ///< I0 over the whole database (apply_global_diffusion)
  kBlocks,  ///< I_[K] (x) I0,[N/K] over the spec's blocks
};

/// The engine interface. All operators are in-place on the backend's state;
/// `reset_uniform` restores |psi0>. Query accounting stays with the caller
/// (oracle::Database's meter), exactly as with the raw kernels.
class Backend {
 public:
  explicit Backend(BackendSpec spec);
  virtual ~Backend() = default;

  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  virtual BackendKind kind() const = 0;
  const BackendSpec& spec() const { return spec_; }
  std::uint64_t num_items() const { return spec_.n_items; }
  std::uint64_t num_blocks() const { return spec_.n_blocks; }
  std::uint64_t block_size() const { return spec_.n_items / spec_.n_blocks; }
  std::uint64_t num_marked() const { return spec_.marked.size(); }
  Index block_of(Index x) const { return x / block_size(); }
  /// The block holding the first marked address.
  Index target_block() const { return block_of(spec_.marked.front()); }

  // -- state preparation --
  /// |psi0> = (1/sqrt(N)) sum_x |x>.
  virtual void reset_uniform() = 0;

  // -- operators (the caller meters queries) --
  /// I_t generalized to the marked set: flip the sign of every marked state.
  virtual void apply_oracle() = 0;
  /// Generalized oracle: multiply marked states by e^{i phi}.
  virtual void apply_oracle_phase(double phi) = 0;
  /// I0 = 2|psi0><psi0| - I.
  virtual void apply_global_diffusion() = 0;
  /// I + (e^{i phi} - 1)|psi0><psi0| (phi = pi recovers -I0 up to phase).
  virtual void apply_global_rotation(double phi) = 0;
  /// I_[K] (x) I0,[N/K] over the spec's K blocks.
  virtual void apply_block_diffusion() = 0;
  /// Generalized per-block rotation by phase phi (sure-success variant).
  virtual void apply_block_rotation(double phi) = 0;
  /// `count` Grover iterations: the oracle, then the global or the block
  /// diffusion, `count` times. The default is that per-op loop, which the
  /// symmetry engine runs. The dense engine runs kernels::grover_iterations
  /// instead, on every ISA tier: the block means and marked amplitudes from
  /// the exact sum recurrence, then one affine pass per block over the
  /// state (agrees with the per-op loop to rounding).
  virtual void apply_grover_iterations(Partition partition,
                                       std::uint64_t count);
  /// Step 3: keep the marked amplitudes, invert every other amplitude about
  /// their common mean.
  virtual void apply_step3() = 0;

  // -- noise channels (trajectory sampling) --
  /// Sample one noise-trajectory step: for each address qubit, with
  /// probability model.probability inject the channel's Pauli. Returns the
  /// number of injected errors. The dense engine applies each Pauli
  /// to the state (exact trajectories); the symmetry engine updates per-class
  /// moments — each symmetry class carries a coherent mean amplitude plus
  /// an incoherent residual mass, every coherent operator transforms the
  /// means exactly and leaves the residue invariant, and each Pauli maps
  /// the class moments the way it maps the underlying amplitudes (exact
  /// for the first error on a fully coherent state, exchangeable-residue
  /// approximation afterwards; validated against dense trajectories to
  /// statistical tolerance in tests). The model's rate is validated here
  /// (two comparisons — an out-of-range rate throws rather than silently
  /// reading as a clean run); drivers additionally validate once at entry
  /// so the error surfaces before any trial work. Checked: the spec must
  /// support noise — see require_noise_support.
  virtual std::uint64_t apply_noise(const NoiseModel& model, Rng& rng) = 0;

  // -- observables --
  virtual double probability(Index x) const = 0;
  /// Total mass on the marked set.
  virtual double marked_probability() const = 0;
  virtual double block_probability(Index block) const = 0;
  /// All K block probabilities.
  virtual std::vector<double> block_distribution() const = 0;
  virtual double norm_squared() const = 0;

  // -- measurement (state not collapsed) --
  /// A sampler of full addresses (kIndex) or block indices (kBlock) over
  /// the current state (qsim/sampler.h): one O(N) build on the dense
  /// engine, O(1) on the symmetry engine. Build it once per batch and draw
  /// every shot from it; it borrows this backend, so rebuild it after any
  /// operator.
  virtual std::unique_ptr<ShotSampler> sampler(Measure what) const = 0;
  /// One shot: build a sampler, draw once.
  Index sample(Rng& rng) const;
  Index sample_block(Rng& rng) const;

  /// Materialize the full amplitude vector (snapshots, cross-validation).
  /// Checked: N must be at most kMaxDenseItems.
  virtual std::vector<Amplitude> amplitudes_copy() const = 0;

 protected:
  BackendSpec spec_;
};

/// True when the spec's marked set lies inside a single block — the
/// precondition for the symmetry engine.
bool symmetry_supports(const BackendSpec& spec);

/// The engine-choice rule. kDense and kSymmetry pass through; kAuto
/// resolves to the symmetry engine when symmetry_supports(spec) and either
/// `noise` is disabled or the state is too large for the dense engine, and
/// to the dense engine otherwise: only the dense engine follows a Pauli-noise
/// trajectory exactly (the symmetry engine's class moments are an
/// approximation after the first error). Checked: the resolved engine must
/// actually support the spec.
BackendKind resolve_backend(BackendKind kind, const BackendSpec& spec,
                            const NoiseModel& noise = {});

/// Construct the chosen engine in the uniform start state.
std::unique_ptr<Backend> make_backend(BackendKind kind,
                                      const BackendSpec& spec);

/// True when the resolved engine can run Pauli noise channels on `spec`:
/// the dense engine needs a power-of-two N (per-qubit Paulis), the symmetry
/// engine additionally needs a power-of-two K and a unique marked address
/// (the class-moment channel is derived for the single-target split).
bool backend_supports_noise(BackendKind kind, const BackendSpec& spec);

/// Throws CheckFailure naming `what` unless backend_supports_noise. Call
/// BEFORE fanning trials across threads: a throw inside an OpenMP region
/// would terminate the process instead of reporting the error.
void require_noise_support(BackendKind kind, const BackendSpec& spec,
                           std::string_view what);

// -- circuit execution on a backend --

/// Apply one circuit op to `backend`: the step apply_circuit repeats, for
/// callers that drive a circuit op by op (the Zalka hybrid argument).
/// Oracle ops act on the backend's marked set. Checked: block ops need a
/// matching block count.
void apply_op(Backend& backend, const Op& op);

/// Execute every op of `circuit` on `backend` (which must already be in the
/// desired start state; circuits assume |psi0>). Returns the oracle queries
/// consumed. Checked: as apply_op, and the circuit's dimension must match
/// the backend's.
std::uint64_t apply_circuit(Backend& backend, const Circuit& circuit);

}  // namespace pqs::qsim
