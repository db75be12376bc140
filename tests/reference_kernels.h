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
// The diffusion views at the bottom realize I0 and I_[K] (x) I0,[N/K] as a
// gate sequence and as a dense matrix, so tests can check the fused
// reflection kernels operator by operator.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/math.h"
#include "qsim/gates.h"
#include "qsim/gates2.h"
#include "qsim/state_vector.h"
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

/// <a|b>.
inline Amplitude inner_product(const Amps& a, const Amps& b) {
  Amplitude sum{0.0, 0.0};
  for (std::size_t i = 0; i < a.size(); ++i) {
    sum += std::conj(a[i]) * b[i];
  }
  return sum;
}

inline void scale(Amps& a, Amplitude s) {
  for (Amplitude& x : a) {
    x *= s;
  }
}

/// The 2x2 gate on qubit q, on basis states whose bits in `control_mask`
/// are all set (mask 0: unconditionally).
inline void apply_controlled_gate1(Amps& a, std::uint64_t control_mask,
                                   unsigned q, const Gate2& g) {
  const std::uint64_t bit = std::uint64_t{1} << q;
  for (std::uint64_t i0 = 0; i0 < a.size(); ++i0) {
    if ((i0 & bit) != 0 || (i0 & control_mask) != control_mask) {
      continue;
    }
    const Amplitude a0 = a[i0], a1 = a[i0 | bit];
    a[i0] = g.m[0][0] * a0 + g.m[0][1] * a1;
    a[i0 | bit] = g.m[1][0] * a0 + g.m[1][1] * a1;
  }
}

inline void apply_gate1(Amps& a, unsigned q, const Gate2& g) {
  apply_controlled_gate1(a, 0, q, g);
}

/// The 4x4 gate on qubits (q_high, q_low), basis order |q_high q_low>.
inline void apply_gate2(Amps& a, unsigned q_high, unsigned q_low,
                        const Gate4& g) {
  const std::uint64_t bh = std::uint64_t{1} << q_high;
  const std::uint64_t bl = std::uint64_t{1} << q_low;
  for (std::uint64_t x = 0; x < a.size(); ++x) {
    if ((x & (bh | bl)) != 0) {
      continue;  // each four-tuple once, from its |00> member
    }
    const std::uint64_t idx[4] = {x, x | bl, x | bh, x | bh | bl};
    const Amplitude in[4] = {a[idx[0]], a[idx[1]], a[idx[2]], a[idx[3]]};
    for (std::size_t r = 0; r < 4; ++r) {
      a[idx[r]] = g.m[r][0] * in[0] + g.m[r][1] * in[1] + g.m[r][2] * in[2] +
                  g.m[r][3] * in[3];
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

// ---- Diffusion views -------------------------------------------------------

/// The H / X / multi-controlled-Z sandwich on the low `bits` qubits, times
/// the global phase -1: 2|u><u| - I with u uniform over those qubits.
inline void apply_diffusion_gate_level(StateVector& state, unsigned bits) {
  for (const Gate2& g : {gates::H(), gates::X()}) {
    for (unsigned q = 0; q < bits; ++q) {
      state.apply_gate1(q, g);
    }
  }
  state.phase_flip_mask_all_ones(pow2(bits) - 1);
  for (const Gate2& g : {gates::X(), gates::H()}) {
    for (unsigned q = 0; q < bits; ++q) {
      state.apply_gate1(q, g);
    }
  }
  state.scale(Amplitude{-1.0, 0.0});
}

/// I0 = 2|psi0><psi0| - I as gates; equal (phase included) to
/// StateVector::reflect_about_uniform.
inline void apply_global_diffusion_gate_level(StateVector& state) {
  apply_diffusion_gate_level(state, state.num_qubits());
}

/// I_[K] (x) I0,[N/K] as gates: the sandwich acts only on the low n-k
/// qubits and the k block qubits idle, which is "in parallel in each block"
/// from Section 2.2 of the paper.
inline void apply_block_diffusion_gate_level(StateVector& state, unsigned k) {
  PQS_CHECK_MSG(k >= 1 && k < state.num_qubits(), "block bits out of range");
  apply_diffusion_gate_level(state, state.num_qubits() - k);
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

/// state <- matrix * state for a dense row-major matrix.
inline void apply_dense_matrix(StateVector& state, const Amps& matrix) {
  const Amps in = state.amplitudes_copy();
  Amps out(in.size());
  for (std::size_t r = 0; r < in.size(); ++r) {
    for (std::size_t c = 0; c < in.size(); ++c) {
      out[r] += matrix[r * in.size() + c] * in[c];
    }
  }
  state = StateVector::from_amplitudes(std::move(out));
}

}  // namespace pqs::qsim::reference
