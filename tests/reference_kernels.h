// Reference implementations the kernel tests compare against.
//
// The library has one kernel stack: the ISA-dispatched SoA kernels in
// qsim/kernels.h. These are independent serial loops over interleaved
// std::complex amplitudes with the same semantics, written for clarity over
// speed: no threads, no SIMD, no block-sum cache, and no argument checks
// (the checks are production behaviour and are tested on the SoA kernels).
// Means use pairwise sums so that long reflection sequences stay within the
// tests' 1e-10 tolerance of the chunked pairwise sums of the SoA kernels.
//
// Among them is the plain 2x2 gate loop, over a 2x2 type local to the
// tests: the library applies no gate matrix, only Paulis
// (kernels::apply_pauli). Below them sit three groups on a SoaVector, with
// the serial scale and mask loops that the library has no kernel for:
//   - dense-state helpers (random, basis and uniform SoaVectors, the
//     L-infinity distance);
//   - the diffusion views: I0 and I_[K] (x) I0,[N/K] as a gate sequence run
//     by the plain gate loop and as a dense matrix, so tests can check the
//     fused reflection kernels operator by operator;
//   - gate-level amplitude amplification Q = -A S0 A^{-1} S_t for an
//     arbitrary preparation A, the reference for the library's
//     amplify_uniform_on_backend.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/math.h"
#include "common/random.h"
#include "oracle/marked_set.h"
#include "qsim/kernels.h"
#include "qsim/soa.h"
#include "qsim/types.h"

namespace pqs::qsim::reference {

using Amps = std::vector<Amplitude>;

/// Pairwise (cascade) sum: O(log N) ulps of rounding error.
inline Amplitude sum_pairwise(std::span<const Amplitude> a) {
  if (a.size() <= 64) {
    Amplitude sum{0.0, 0.0};
    for (const Amplitude& x : a) {
      sum += x;
    }
    return sum;
  }
  const std::size_t mid = a.size() / 2;
  return sum_pairwise(a.first(mid)) + sum_pairwise(a.subspan(mid));
}

inline double norm_squared(std::span<const Amplitude> a) {
  double sum = 0.0;
  for (const Amplitude& x : a) {
    sum += std::norm(x);
  }
  return sum;
}

inline void scale(Amps& a, Amplitude s) {
  for (Amplitude& x : a) {
    x *= s;
  }
}

/// A 2x2 matrix on one qubit, row-major: the gates the references below
/// build operators from. The library applies no such gate; its only
/// per-qubit operation is kernels::apply_pauli.
struct Gate {
  Amplitude m00, m01, m10, m11;
};

inline Gate hadamard() {
  const double s = 1.0 / std::sqrt(2.0);
  return {s, s, s, -s};
}

inline Gate pauli_x() { return {0.0, 1.0, 1.0, 0.0}; }

/// exp(-i theta Y / 2).
inline Gate ry(double theta) {
  const double c = std::cos(theta / 2.0);
  const double s = std::sin(theta / 2.0);
  return {c, -s, s, c};
}

/// The 2x2 gate on qubit q.
inline void apply_gate1(Amps& a, unsigned q, const Gate& g) {
  const std::uint64_t bit = std::uint64_t{1} << q;
  for (std::uint64_t i0 = 0; i0 < a.size(); ++i0) {
    if ((i0 & bit) != 0) {
      continue;
    }
    const Amplitude a0 = a[i0], a1 = a[i0 | bit];
    a[i0] = g.m00 * a0 + g.m01 * a1;
    a[i0 | bit] = g.m10 * a0 + g.m11 * a1;
  }
}

/// The same on a dense state.
inline void apply_gate1(SoaVector& v, unsigned q, const Gate& g) {
  Amps a = v.to_amplitudes();
  apply_gate1(a, q, g);
  v = SoaVector::from_amplitudes(a);
}

/// The Pauli on qubit q: X swaps each pair (a0, a1), Z negates a1, and Y
/// maps (a0, a1) to (-i a1, i a0).
inline void apply_pauli(Amps& a, unsigned q, Pauli p) {
  const std::uint64_t bit = std::uint64_t{1} << q;
  const Amplitude i{0.0, 1.0};
  for (std::uint64_t i0 = 0; i0 < a.size(); ++i0) {
    if ((i0 & bit) != 0) {
      continue;
    }
    const Amplitude a0 = a[i0], a1 = a[i0 | bit];
    switch (p) {
      case Pauli::kX:
        a[i0] = a1;
        a[i0 | bit] = a0;
        break;
      case Pauli::kY:
        a[i0] = -i * a1;
        a[i0 | bit] = i * a0;
        break;
      case Pauli::kZ:
        a[i0 | bit] = -a1;
        break;
    }
  }
}

inline void phase_rotate_indices(Amps& a, std::span<const Index> marked,
                                 double phi) {
  for (const Index m : marked) {
    a[m] *= std::polar(1.0, phi);
  }
}

inline void phase_flip_indices(Amps& a, std::span<const Index> marked) {
  for (const Index m : marked) {
    a[m] = -a[m];
  }
}

template <typename Pred>
void phase_flip_if(Amps& a, Pred&& predicate) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (predicate(static_cast<Index>(i))) {
      a[i] = -a[i];
    }
  }
}

inline void phase_flip_mask_all_ones(Amps& a, std::uint64_t mask) {
  phase_flip_if(a, [mask](Index x) { return (x & mask) == mask; });
}

/// Per block of `block_size`: a <- a + (e^{i phi} - 1) * mean(block).
inline void rotate_blocks_about_uniform(Amps& a, std::size_t block_size,
                                        double phi) {
  const Amplitude factor = std::polar(1.0, phi) - 1.0;
  for (std::size_t lo = 0; lo < a.size(); lo += block_size) {
    const Amplitude mean =
        sum_pairwise(std::span<const Amplitude>(a).subspan(lo, block_size)) /
        static_cast<double>(block_size);
    for (std::size_t i = lo; i < lo + block_size; ++i) {
      a[i] += factor * mean;
    }
  }
}

/// Per block of `block_size`: a <- 2 * mean(block) - a.
inline void reflect_blocks_about_uniform(Amps& a, std::size_t block_size) {
  for (std::size_t lo = 0; lo < a.size(); lo += block_size) {
    const Amplitude twice_mean =
        2.0 *
        sum_pairwise(std::span<const Amplitude>(a).subspan(lo, block_size)) /
        static_cast<double>(block_size);
    for (std::size_t i = lo; i < lo + block_size; ++i) {
      a[i] = twice_mean - a[i];
    }
  }
}

inline void reflect_about_uniform(Amps& a) {
  reflect_blocks_about_uniform(a, a.size());
}

/// The listed (sorted, unique) indices keep their amplitudes; the rest are
/// inverted about their common mean.
inline void reflect_unmarked_about_their_mean(Amps& a,
                                              std::span<const Index> marked) {
  Amplitude sum = sum_pairwise(a);
  for (const Index m : marked) {
    sum -= a[m];
  }
  const Amplitude twice_mean =
      2.0 * sum / static_cast<double>(a.size() - marked.size());
  std::size_t j = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (j < marked.size() && marked[j] == i) {
      ++j;
    } else {
      a[i] = twice_mean - a[i];
    }
  }
}

inline void reflect_non_target_about_their_mean(Amps& a, Index t) {
  const Index marked[1] = {t};
  reflect_unmarked_about_their_mean(a, marked);
}

// ---- Dense-state helpers ---------------------------------------------------

/// Multiply every amplitude of a SoaVector by s, serially.
inline void scale(SoaVector& v, Amplitude s) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    const Amplitude a{v.re()[i], v.im()[i]};
    v.re()[i] = (s * a).real();
    v.im()[i] = (s * a).imag();
  }
  v.invalidate_sums();
}

/// Multiply by -1 every amplitude of a SoaVector whose index has all bits
/// of `mask` set (a multi-controlled Z on the qubits in `mask`), serially.
inline void phase_flip_mask_all_ones(SoaVector& v, std::uint64_t mask) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    if ((i & mask) == mask) {
      v.re()[i] = -v.re()[i];
      v.im()[i] = -v.im()[i];
    }
  }
  v.invalidate_sums();
}

/// |x> on n qubits.
inline SoaVector basis_state(unsigned n_qubits, Index x) {
  SoaVector v(pow2(n_qubits));
  v.set(x, Amplitude{1.0, 0.0});
  return v;
}

/// |psi0> = (1/sqrt(N)) sum_x |x> on n qubits.
inline SoaVector uniform_state(unsigned n_qubits) {
  const double amp = 1.0 / std::sqrt(static_cast<double>(pow2(n_qubits)));
  return SoaVector(pow2(n_qubits), Amplitude{amp, 0.0});
}

/// Rescale to unit norm.
inline void normalize(SoaVector& v) {
  const double norm = std::sqrt(kernels::norm_squared(v));
  scale(v, Amplitude{1.0 / norm, 0.0});
}

/// A normalized state with independent normal re/im parts.
inline SoaVector random_state(unsigned n_qubits, Rng& rng) {
  Amps amps(pow2(n_qubits));
  for (auto& a : amps) {
    a = Amplitude{rng.normal(), rng.normal()};
  }
  SoaVector v = SoaVector::from_amplitudes(amps);
  normalize(v);
  return v;
}

/// max_x |a_x - b_x|.
inline double linf_distance(const Amps& a, const Amps& b) {
  PQS_CHECK_MSG(a.size() == b.size(), "dimension mismatch");
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    d = std::max(d, std::abs(a[i] - b[i]));
  }
  return d;
}

inline double linf_distance(const SoaVector& a, const SoaVector& b) {
  return linf_distance(a.to_amplitudes(), b.to_amplitudes());
}

// ---- Diffusion views -------------------------------------------------------

/// The H / X / multi-controlled-Z sandwich on the low `bits` qubits, times
/// the global phase -1: 2|u><u| - I with u uniform over those qubits.
inline void apply_diffusion_gate_level(SoaVector& v, unsigned bits) {
  for (const Gate& g : {hadamard(), pauli_x()}) {
    for (unsigned q = 0; q < bits; ++q) {
      apply_gate1(v, q, g);
    }
  }
  phase_flip_mask_all_ones(v, pow2(bits) - 1);
  for (const Gate& g : {pauli_x(), hadamard()}) {
    for (unsigned q = 0; q < bits; ++q) {
      apply_gate1(v, q, g);
    }
  }
  scale(v, Amplitude{-1.0, 0.0});
}

/// I0 = 2|psi0><psi0| - I as gates; equal (phase included) to
/// kernels::reflect_about_uniform.
inline void apply_global_diffusion_gate_level(SoaVector& v) {
  apply_diffusion_gate_level(v, log2_exact(v.size()));
}

/// I_[K] (x) I0,[N/K] as gates: the sandwich acts only on the low n-k
/// qubits and the k block qubits idle, which is "in parallel in each block"
/// from Section 2.2 of the paper.
inline void apply_block_diffusion_gate_level(SoaVector& v, unsigned k) {
  const unsigned n = log2_exact(v.size());
  PQS_CHECK_MSG(k >= 1 && k < n, "block bits out of range");
  apply_diffusion_gate_level(v, n - k);
}

/// Dense row-major matrix of I_[K] (x) I0,[N/K] with K = 2^k blocks; k = 0
/// gives I0. Capped at 4096 x 4096 (256 MiB).
inline Amps block_diffusion_matrix(unsigned n_qubits, unsigned k) {
  const std::size_t dim = pow2(n_qubits);
  PQS_CHECK_MSG(dim <= 4096, "dense matrices are for test-sized states");
  PQS_CHECK_MSG(k < n_qubits, "block bits out of range");
  const std::size_t block = dim >> k;
  Amps m(dim * dim);
  for (std::size_t r = 0; r < dim; ++r) {
    for (std::size_t c = 0; c < dim; ++c) {
      const double mean = r / block == c / block ? 2.0 / block : 0.0;
      m[r * dim + c] = mean - (r == c ? 1.0 : 0.0);
    }
  }
  return m;
}

inline Amps global_diffusion_matrix(unsigned n_qubits) {
  return block_diffusion_matrix(n_qubits, 0);
}

/// v <- matrix * v for a dense row-major matrix.
inline void apply_dense_matrix(SoaVector& v, const Amps& matrix) {
  const Amps in = v.to_amplitudes();
  Amps out(in.size());
  for (std::size_t r = 0; r < in.size(); ++r) {
    for (std::size_t c = 0; c < in.size(); ++c) {
      out[r] += matrix[r * in.size() + c] * in[c];
    }
  }
  v = SoaVector::from_amplitudes(out);
}

// ---- Gate-level amplitude amplification ------------------------------------

/// A unitary given by its action and its inverse's action on a dense state.
struct Preparation {
  std::function<void(SoaVector&)> apply;
  std::function<void(SoaVector&)> apply_inverse;
};

/// The Walsh-Hadamard preparation (self-inverse).
inline Preparation hadamard_preparation() {
  const auto apply = [](SoaVector& v) {
    const unsigned n = log2_exact(v.size());
    for (unsigned q = 0; q < n; ++q) {
      apply_gate1(v, q, hadamard());
    }
  };
  return Preparation{apply, apply};
}

/// One amplification step Q = -A S0 A^{-1} S_t in place. One query on db.
inline void amplification_step(SoaVector& v, const Preparation& prep,
                               const oracle::MarkedDatabase& db) {
  PQS_CHECK_MSG(v.size() == db.size(), "dimension mismatch");
  db.add_queries(1);
  kernels::phase_flip_indices(v, db.marked());  // S_t
  prep.apply_inverse(v);                        // A^{-1}
  kernels::phase_flip_index(v, 0);              // S0 = I - 2|0><0|
  prep.apply(v);                                // A
  scale(v, Amplitude{-1.0, 0.0});               // overall -1 of Q
}

/// A|0> followed by `iterations` amplification steps.
inline SoaVector amplify(unsigned n_qubits, const Preparation& prep,
                         const oracle::MarkedDatabase& db,
                         std::uint64_t iterations) {
  SoaVector v = basis_state(n_qubits, 0);
  prep.apply(v);
  for (std::uint64_t i = 0; i < iterations; ++i) {
    amplification_step(v, prep, db);
  }
  return v;
}

/// Total probability on the marked set.
inline double marked_probability(const SoaVector& v,
                                 const oracle::MarkedDatabase& db) {
  double p = 0.0;
  for (const Index m : db.marked()) {
    p += std::norm(v.get(m));
  }
  return p;
}

/// Initial success probability a = sum over marked |<x|A|0>|^2.
inline double initial_success_probability(unsigned n_qubits,
                                          const Preparation& prep,
                                          const oracle::MarkedDatabase& db) {
  return marked_probability(amplify(n_qubits, prep, db, 0), db);
}

}  // namespace pqs::qsim::reference
