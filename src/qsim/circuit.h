// A small circuit IR.
//
// Circuits separate *description* from *execution*: algorithms build an op
// list once; qsim::apply_circuit (qsim/backend.h) runs it on a Backend,
// counting oracle queries. Oracle calls are symbolic (OracleOp /
// NonTargetMeanOp) and read the backend's marked set, so the same circuit
// runs against different databases — and, for the Zalka hybrid argument
// (zalka/zalka.h), one op at a time with some oracle calls replaced by the
// identity.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "qsim/gates.h"
#include "qsim/types.h"

namespace pqs::qsim {

// --- Ops ---

/// Apply a 2x2 gate to one qubit.
struct Gate1Op {
  unsigned q;
  Gate2 g;
};

/// Apply a 2x2 gate to qubit q, controlled on all qubits in `control_mask`.
struct CGate1Op {
  std::uint64_t control_mask;
  unsigned q;
  Gate2 g;
};

/// Apply the same 2x2 gate to every qubit (e.g. the H^(x)n / X^(x)n layers).
struct LayerOp {
  Gate2 g;
};

/// Phase oracle: flip the sign of every marked basis state. Costs 1 query.
struct OracleOp {};

/// Generalized phase oracle: multiply marked states by e^{i phi}. 1 query.
/// (Used by the sure-success variants; phi = pi is OracleOp.)
struct OraclePhaseOp {
  double phi;
};

/// I0 = 2|psi0><psi0| - I as a fused kernel. 0 queries.
struct GlobalDiffusionOp {};

/// I_[K] (x) I0,[N/K] with K = 2^k blocks. 0 queries.
struct BlockDiffusionOp {
  unsigned k;
};

/// Generalized block rotation about the uniform axis by phase phi. 0 queries.
struct BlockRotationOp {
  unsigned k;
  double phi;
};

/// Flip the sign of one *known* basis state (no oracle involved). Used for
/// the |0...0> phase in the gate-level diffusion decomposition. 0 queries.
struct PhaseFlipKnownOp {
  Index x;
};

/// Multi-controlled Z: flip the sign of states with all bits of `mask` set.
struct MczOp {
  std::uint64_t mask;
};

/// Multiply the whole state by a fixed phase (tracks the -1 that the
/// gate-level diffusion decomposition introduces). 0 queries.
struct GlobalPhaseOp {
  Amplitude phase;
};

/// Step 3 of the partial-search algorithm: mark the target out with one query
/// and invert all the *other* amplitudes about their mean. 1 query.
struct NonTargetMeanOp {};

using Op = std::variant<Gate1Op, CGate1Op, LayerOp, OracleOp, OraclePhaseOp,
                        GlobalDiffusionOp, BlockDiffusionOp, BlockRotationOp,
                        PhaseFlipKnownOp, MczOp, GlobalPhaseOp,
                        NonTargetMeanOp>;

/// How many oracle queries an op consumes.
std::uint64_t op_query_cost(const Op& op);
/// Human-readable op name.
std::string op_name(const Op& op);

/// An ordered op list for a fixed qubit count.
class Circuit {
 public:
  explicit Circuit(unsigned n_qubits);

  unsigned num_qubits() const { return n_qubits_; }
  std::size_t size() const { return ops_.size(); }
  const std::vector<Op>& ops() const { return ops_; }

  // -- builders --
  Circuit& add(Op op);
  Circuit& gate1(unsigned q, const Gate2& g);
  Circuit& controlled(std::uint64_t control_mask, unsigned q, const Gate2& g);
  Circuit& layer(const Gate2& g);
  Circuit& hadamard_all() { return layer(gates::H()); }
  Circuit& oracle();
  Circuit& oracle_phase(double phi);
  Circuit& global_diffusion();
  Circuit& block_diffusion(unsigned k);
  Circuit& block_rotation(unsigned k, double phi);
  /// One standard Grover iteration A = I0 . It (1 query).
  Circuit& grover_iteration();
  /// One per-block iteration A_[N/K] = (I_[K] (x) I0,[N/K]) . It (1 query).
  Circuit& partial_iteration(unsigned k);
  /// Gate-level I0: H layer, X layer, MCZ on all qubits, X layer, H layer,
  /// global phase -1. Equal to GlobalDiffusionOp as an operator (tested).
  Circuit& global_diffusion_gate_level();
  /// Step 3 of the partial-search algorithm (1 query).
  Circuit& non_target_mean_reflection();

  /// Total oracle queries the circuit would consume.
  std::uint64_t query_count() const;

  /// Multi-line rendering of the op list.
  std::string to_string() const;

 private:
  unsigned n_qubits_;
  std::vector<Op> ops_;
};

/// The textbook Grover circuit: `iterations` repetitions of A = I0 . It on
/// the uniform start state (start state preparation is the caller's job).
Circuit make_grover_circuit(unsigned n_qubits, std::uint64_t iterations);

}  // namespace pqs::qsim
