#include "qsim/circuit.h"

#include "common/check.h"

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

}  // namespace

std::uint64_t op_query_cost(const Op& op) {
  return std::visit(QueryCostVisitor{}, op);
}

Circuit::Circuit(unsigned n_qubits) : n_qubits_(n_qubits) {
  PQS_CHECK(n_qubits >= 1 && n_qubits <= kMaxQubits);
}

Circuit& Circuit::add(Op op) {
  ops_.push_back(std::move(op));
  return *this;
}

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

Circuit make_grover_circuit(unsigned n_qubits, std::uint64_t iterations) {
  Circuit c(n_qubits);
  for (std::uint64_t i = 0; i < iterations; ++i) {
    c.grover_iteration();
  }
  return c;
}

}  // namespace pqs::qsim
