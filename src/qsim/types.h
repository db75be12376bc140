// Fundamental types of the state-vector simulator.
#pragma once

#include <complex>
#include <cstdint>

namespace pqs::qsim {

/// One complex amplitude. Double precision throughout: the reproduction checks
/// identities to ~1e-10, which float32 cannot hold over ~1000 Grover steps.
using Amplitude = std::complex<double>;

/// Basis-state index into the 2^n-dimensional state vector.
///
/// Bit convention: bit q of an Index is qubit q, with qubit 0 the least
/// significant. The paper's "first k bits of the address" are the *most*
/// significant k bits, i.e. the block index of x is `x >> (n - k)`.
using Index = std::uint64_t;

/// Number of qubits; the simulator supports n <= 30 (8 GiB of amplitudes
/// would be needed beyond that).
inline constexpr unsigned kMaxQubits = 30;

/// A single-qubit Pauli operator: the only per-qubit operation the
/// simulator applies (the Pauli noise channels of qsim/noise.h).
enum class Pauli { kX, kY, kZ };

}  // namespace pqs::qsim
