// A small circuit IR at the query level.
//
// Circuits separate *description* from *execution*: algorithms build an op
// list once; qsim::apply_circuit (qsim/backend.h) runs it on a Backend,
// counting oracle queries. Oracle calls are symbolic (OracleOp /
// OraclePhaseOp / NonTargetMeanOp) and read the backend's marked set, so the
// same circuit runs against different databases — and, for the Zalka hybrid
// argument (zalka/zalka.h), one op at a time with some oracle calls replaced
// by the identity.
//
// Every op is one of the paper's query-model operators: the oracle phase,
// the global and per-block reflections and rotations, and the Step-3
// reflection. When the marked set lies in one block, each keeps the state in
// the three-class invariant subspace, so the symmetry engine runs every
// circuit as exactly as the dense engine.
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "qsim/types.h"

namespace pqs::qsim {

// --- Ops ---

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

/// Step 3 of the partial-search algorithm: mark the target out with one query
/// and invert all the *other* amplitudes about their mean. 1 query.
struct NonTargetMeanOp {};

using Op = std::variant<OracleOp, OraclePhaseOp, GlobalDiffusionOp,
                        BlockDiffusionOp, BlockRotationOp, NonTargetMeanOp>;

/// How many oracle queries an op consumes.
std::uint64_t op_query_cost(const Op& op);

/// An ordered op list for a fixed qubit count.
class Circuit {
 public:
  explicit Circuit(unsigned n_qubits);

  unsigned num_qubits() const { return n_qubits_; }
  std::size_t size() const { return ops_.size(); }
  const std::vector<Op>& ops() const { return ops_; }

  // -- builders --
  Circuit& add(Op op);
  Circuit& oracle();
  Circuit& oracle_phase(double phi);
  Circuit& global_diffusion();
  Circuit& block_diffusion(unsigned k);
  Circuit& block_rotation(unsigned k, double phi);
  /// One standard Grover iteration A = I0 . It (1 query).
  Circuit& grover_iteration();
  /// One per-block iteration A_[N/K] = (I_[K] (x) I0,[N/K]) . It (1 query).
  Circuit& partial_iteration(unsigned k);
  /// Step 3 of the partial-search algorithm (1 query).
  Circuit& non_target_mean_reflection();

  /// Total oracle queries the circuit would consume.
  std::uint64_t query_count() const;

 private:
  unsigned n_qubits_;
  std::vector<Op> ops_;
};

/// The textbook Grover circuit: `iterations` repetitions of A = I0 . It on
/// the uniform start state (start state preparation is the caller's job).
Circuit make_grover_circuit(unsigned n_qubits, std::uint64_t iterations);

}  // namespace pqs::qsim
