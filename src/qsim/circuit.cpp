#include "qsim/circuit.h"

#include <sstream>

#include "common/check.h"
#include "common/math.h"

namespace pqs::qsim {

namespace {

struct QueryCostVisitor {
  std::uint64_t operator()(const OracleOp&) const { return 1; }
  std::uint64_t operator()(const OraclePhaseOp&) const { return 1; }
  std::uint64_t operator()(const NonTargetMeanOp&) const { return 1; }
  template <typename T>
  std::uint64_t operator()(const T&) const {
    return 0;
  }
};

struct NameVisitor {
  std::string operator()(const Gate1Op& op) const {
    return op.g.name + "(q" + std::to_string(op.q) + ")";
  }
  std::string operator()(const CGate1Op& op) const {
    return "C[" + std::to_string(op.control_mask) + "]" + op.g.name + "(q" +
           std::to_string(op.q) + ")";
  }
  std::string operator()(const LayerOp& op) const {
    return op.g.name + "^(x)n";
  }
  std::string operator()(const OracleOp&) const { return "Oracle(It)"; }
  std::string operator()(const OraclePhaseOp& op) const {
    return "OraclePhase(" + std::to_string(op.phi) + ")";
  }
  std::string operator()(const GlobalDiffusionOp&) const { return "I0"; }
  std::string operator()(const BlockDiffusionOp& op) const {
    return "I0[blocks k=" + std::to_string(op.k) + "]";
  }
  std::string operator()(const BlockRotationOp& op) const {
    return "Rot[blocks k=" + std::to_string(op.k) + ", phi=" +
           std::to_string(op.phi) + "]";
  }
  std::string operator()(const PhaseFlipKnownOp& op) const {
    return "FlipKnown(" + std::to_string(op.x) + ")";
  }
  std::string operator()(const MczOp& op) const {
    return "MCZ(mask=" + std::to_string(op.mask) + ")";
  }
  std::string operator()(const GlobalPhaseOp&) const { return "GlobalPhase"; }
  std::string operator()(const NonTargetMeanOp&) const {
    return "NonTargetMeanReflect";
  }
};

}  // namespace

std::uint64_t op_query_cost(const Op& op) {
  return std::visit(QueryCostVisitor{}, op);
}

std::string op_name(const Op& op) { return std::visit(NameVisitor{}, op); }

Circuit::Circuit(unsigned n_qubits) : n_qubits_(n_qubits) {
  PQS_CHECK(n_qubits >= 1 && n_qubits <= kMaxQubits);
}

Circuit& Circuit::add(Op op) {
  ops_.push_back(std::move(op));
  return *this;
}

Circuit& Circuit::gate1(unsigned q, const Gate2& g) {
  PQS_CHECK_MSG(q < n_qubits_, "qubit index out of range");
  return add(Gate1Op{q, g});
}

Circuit& Circuit::controlled(std::uint64_t control_mask, unsigned q,
                             const Gate2& g) {
  PQS_CHECK_MSG(q < n_qubits_, "qubit index out of range");
  return add(CGate1Op{control_mask, q, g});
}

Circuit& Circuit::layer(const Gate2& g) { return add(LayerOp{g}); }

Circuit& Circuit::oracle() { return add(OracleOp{}); }

Circuit& Circuit::oracle_phase(double phi) { return add(OraclePhaseOp{phi}); }

Circuit& Circuit::global_diffusion() { return add(GlobalDiffusionOp{}); }

Circuit& Circuit::block_diffusion(unsigned k) {
  PQS_CHECK_MSG(k >= 1 && k < n_qubits_, "block bits out of range");
  return add(BlockDiffusionOp{k});
}

Circuit& Circuit::block_rotation(unsigned k, double phi) {
  PQS_CHECK_MSG(k >= 1 && k < n_qubits_, "block bits out of range");
  return add(BlockRotationOp{k, phi});
}

Circuit& Circuit::grover_iteration() {
  oracle();
  return global_diffusion();
}

Circuit& Circuit::partial_iteration(unsigned k) {
  oracle();
  return block_diffusion(k);
}

Circuit& Circuit::global_diffusion_gate_level() {
  layer(gates::H());
  layer(gates::X());
  add(MczOp{pow2(n_qubits_) - 1});
  layer(gates::X());
  layer(gates::H());
  return add(GlobalPhaseOp{Amplitude{-1.0, 0.0}});
}

Circuit& Circuit::non_target_mean_reflection() {
  return add(NonTargetMeanOp{});
}

std::uint64_t Circuit::query_count() const {
  std::uint64_t total = 0;
  for (const auto& op : ops_) {
    total += op_query_cost(op);
  }
  return total;
}

std::string Circuit::to_string() const {
  std::ostringstream os;
  os << "Circuit(n=" << n_qubits_ << ", ops=" << ops_.size()
     << ", queries=" << query_count() << ")\n";
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    os << "  " << i << ": " << op_name(ops_[i]) << '\n';
  }
  return os.str();
}

Circuit make_grover_circuit(unsigned n_qubits, std::uint64_t iterations) {
  Circuit c(n_qubits);
  for (std::uint64_t i = 0; i < iterations; ++i) {
    c.grover_iteration();
  }
  return c;
}

}  // namespace pqs::qsim
