// Two-qubit gates: the 4x4 matrices completing the simulator's gate set.
//
// The reproduction itself needs only reflections and single-qubit layers,
// but a simulator substrate a downstream user would adopt needs entangling
// gates. This header only builds the matrices; the SoA kernel
// kernels::apply_gate2 (qsim/kernels.h) applies one to a dense state.
#pragma once

#include <array>
#include <string>

#include "qsim/gates.h"
#include "qsim/types.h"

namespace pqs::qsim {

/// A 4x4 unitary on an ordered qubit pair (q_high, q_low): basis order
/// |q_high q_low> = |00>, |01>, |10>, |11>.
struct Gate4 {
  std::array<std::array<Amplitude, 4>, 4> m;
  std::string name;

  Gate4 compose(const Gate4& first) const;
  Gate4 adjoint() const;
  double distance(const Gate4& other) const;
  double unitarity_defect() const;
};

namespace gates {

/// Identity on two qubits.
Gate4 II();
/// Tensor product a (on the high qubit) (x) b (on the low qubit).
Gate4 tensor(const Gate2& a, const Gate2& b);
/// CNOT with the HIGH qubit as control, LOW as target.
Gate4 CNOT();
/// Controlled-Z (symmetric).
Gate4 CZ();
/// Controlled phase diag(1,1,1,e^{i phi}).
Gate4 CPhase(double phi);
/// SWAP.
Gate4 SWAP();
/// iSWAP.
Gate4 ISWAP();

}  // namespace gates

}  // namespace pqs::qsim
