#include "qsim/kernels.h"

#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/math.h"
#include "qsim/parallel.h"

namespace pqs::qsim::kernels {

namespace {

/// Signed loop counter type of parallel_for.
using SIdx = std::int64_t;

void check_state_size(std::span<const Amplitude> state, unsigned n_qubits) {
  PQS_CHECK_MSG(state.size() == pow2(n_qubits),
                "state size does not match qubit count");
}

}  // namespace

Amplitude sum_pairwise(std::span<const Amplitude> state) {
  if (state.size() <= 64) {
    Amplitude sum{0.0, 0.0};
    for (const Amplitude& a : state) {
      sum += a;
    }
    return sum;
  }
  const std::size_t mid = state.size() / 2;
  return sum_pairwise(state.first(mid)) + sum_pairwise(state.subspan(mid));
}

double norm_squared_pairwise(std::span<const Amplitude> state) {
  if (state.size() <= 64) {
    double sum = 0.0;
    for (const Amplitude& a : state) {
      sum += std::norm(a);
    }
    return sum;
  }
  const std::size_t mid = state.size() / 2;
  return norm_squared_pairwise(state.first(mid)) +
         norm_squared_pairwise(state.subspan(mid));
}

void apply_gate1(std::span<Amplitude> state, unsigned n_qubits, unsigned q,
                 const Gate2& g) {
  check_state_size(state, n_qubits);
  PQS_CHECK_MSG(q < n_qubits, "qubit index out of range");
  const std::uint64_t stride = std::uint64_t{1} << q;
  const auto pairs = static_cast<SIdx>(state.size() / (2 * stride));
  const Amplitude m00 = g.m[0][0], m01 = g.m[0][1], m10 = g.m[1][0],
                  m11 = g.m[1][1];
  // Iterate over every index with bit q == 0; its partner has bit q == 1.
  parallel_for(pairs, parallel_threads(state.size()), [&](SIdx p) {
    const SIdx base = p * static_cast<SIdx>(stride) * 2;
    for (SIdx off = 0; off < static_cast<SIdx>(stride); ++off) {
      const auto i0 = static_cast<std::size_t>(base + off);
      const auto i1 = i0 + stride;
      const Amplitude a0 = state[i0];
      const Amplitude a1 = state[i1];
      state[i0] = m00 * a0 + m01 * a1;
      state[i1] = m10 * a0 + m11 * a1;
    }
  });
}

void apply_controlled_gate1(std::span<Amplitude> state, unsigned n_qubits,
                            std::uint64_t control_mask, unsigned q,
                            const Gate2& g) {
  check_state_size(state, n_qubits);
  PQS_CHECK_MSG(q < n_qubits, "qubit index out of range");
  PQS_CHECK_MSG((control_mask & (std::uint64_t{1} << q)) == 0,
                "target qubit cannot be its own control");
  PQS_CHECK_MSG(control_mask < state.size(), "control mask out of range");
  const std::uint64_t stride = std::uint64_t{1} << q;
  const auto pairs = static_cast<SIdx>(state.size() / (2 * stride));
  const Amplitude m00 = g.m[0][0], m01 = g.m[0][1], m10 = g.m[1][0],
                  m11 = g.m[1][1];
  parallel_for(pairs, parallel_threads(state.size()), [&](SIdx p) {
    const SIdx base = p * static_cast<SIdx>(stride) * 2;
    for (SIdx off = 0; off < static_cast<SIdx>(stride); ++off) {
      const auto i0 = static_cast<std::uint64_t>(base + off);
      if ((i0 & control_mask) != control_mask) {
        continue;
      }
      const auto i1 = i0 + stride;
      const Amplitude a0 = state[i0];
      const Amplitude a1 = state[i1];
      state[i0] = m00 * a0 + m01 * a1;
      state[i1] = m10 * a0 + m11 * a1;
    }
  });
}

void phase_flip_index(std::span<Amplitude> state, Index t) {
  PQS_CHECK_MSG(t < state.size(), "target index out of range");
  state[t] = -state[t];
}

void phase_rotate_index(std::span<Amplitude> state, Index t, double phi) {
  PQS_CHECK_MSG(t < state.size(), "target index out of range");
  state[t] *= std::polar(1.0, phi);
}

void phase_flip_indices(std::span<Amplitude> state,
                        std::span<const Index> marked_sorted) {
  for (std::size_t j = 0; j < marked_sorted.size(); ++j) {
    const Index m = marked_sorted[j];
    PQS_CHECK_MSG(m < state.size(), "marked index out of range");
    PQS_DCHECK(j == 0 || marked_sorted[j - 1] < m);
    state[m] = -state[m];
  }
}

void phase_rotate_indices(std::span<Amplitude> state,
                          std::span<const Index> marked_sorted, double phi) {
  const Amplitude factor = std::polar(1.0, phi);
  for (std::size_t j = 0; j < marked_sorted.size(); ++j) {
    const Index m = marked_sorted[j];
    PQS_CHECK_MSG(m < state.size(), "marked index out of range");
    PQS_DCHECK(j == 0 || marked_sorted[j - 1] < m);
    state[m] *= factor;
  }
}

void phase_flip_mask_all_ones(std::span<Amplitude> state, std::uint64_t mask) {
  PQS_CHECK_MSG(mask < state.size(), "mask out of range");
  parallel_for(static_cast<SIdx>(state.size()), parallel_threads(state.size()),
               [&](SIdx i) {
    const auto u = static_cast<std::uint64_t>(i);
    if ((u & mask) == mask) {
      state[static_cast<std::size_t>(i)] = -state[static_cast<std::size_t>(i)];
    }
  });
}

void reflect_about_uniform(std::span<Amplitude> state) {
  reflect_blocks_about_uniform(state, state.size());
}

void reflect_blocks_about_uniform(std::span<Amplitude> state,
                                  std::size_t block_size) {
  PQS_CHECK(block_size > 0);
  PQS_CHECK_MSG(state.size() % block_size == 0,
                "block size must divide the state size");
  const auto n_blocks = static_cast<SIdx>(state.size() / block_size);
  parallel_for(n_blocks, parallel_threads(state.size()), [&](SIdx b) {
    const std::size_t lo = static_cast<std::size_t>(b) * block_size;
    const Amplitude sum = sum_pairwise(state.subspan(lo, block_size));
    const Amplitude twice_mean =
        2.0 * sum / static_cast<double>(block_size);
    for (std::size_t i = lo; i < lo + block_size; ++i) {
      state[i] = twice_mean - state[i];
    }
  });
}

void rotate_blocks_about_uniform(std::span<Amplitude> state,
                                 std::size_t block_size, double phi) {
  PQS_CHECK(block_size > 0);
  PQS_CHECK_MSG(state.size() % block_size == 0,
                "block size must divide the state size");
  const Amplitude factor = std::polar(1.0, phi) - 1.0;
  const auto n_blocks = static_cast<SIdx>(state.size() / block_size);
  parallel_for(n_blocks, parallel_threads(state.size()), [&](SIdx b) {
    const std::size_t lo = static_cast<std::size_t>(b) * block_size;
    const Amplitude sum = sum_pairwise(state.subspan(lo, block_size));
    const Amplitude add = factor * sum / static_cast<double>(block_size);
    for (std::size_t i = lo; i < lo + block_size; ++i) {
      state[i] += add;
    }
  });
}

void reflect_about_state(std::span<Amplitude> state,
                         std::span<const Amplitude> axis) {
  PQS_CHECK_MSG(state.size() == axis.size(), "dimension mismatch");
  PQS_CHECK_MSG(approx_eq(norm_squared(axis), 1.0, 1e-9),
                "reflection axis must be a unit vector");
  const Amplitude overlap = inner_product(axis, state);
  parallel_for(static_cast<SIdx>(state.size()), parallel_threads(state.size()),
               [&](SIdx i) {
    const auto idx = static_cast<std::size_t>(i);
    state[idx] = 2.0 * overlap * axis[idx] - state[idx];
  });
}

void reflect_non_target_about_their_mean(std::span<Amplitude> state, Index t) {
  PQS_CHECK_MSG(t < state.size(), "target index out of range");
  PQS_CHECK_MSG(state.size() >= 2, "need at least two basis states");
  Amplitude sum = sum_pairwise(state);
  sum -= state[t];
  const Amplitude twice_mean =
      2.0 * sum / static_cast<double>(state.size() - 1);
  const Amplitude saved_target = state[t];
  parallel_for(static_cast<SIdx>(state.size()), parallel_threads(state.size()),
               [&](SIdx i) {
    const auto idx = static_cast<std::size_t>(i);
    state[idx] = twice_mean - state[idx];
  });
  state[t] = saved_target;
}

void reflect_unmarked_about_their_mean(std::span<Amplitude> state,
                                       std::span<const Index> marked_sorted) {
  PQS_CHECK_MSG(!marked_sorted.empty(), "need at least one marked index");
  PQS_CHECK_MSG(marked_sorted.size() < state.size() - 1,
                "need at least two unmarked states");
  Amplitude sum = sum_pairwise(state);
  std::vector<Amplitude> saved(marked_sorted.size());
  for (std::size_t j = 0; j < marked_sorted.size(); ++j) {
    const Index m = marked_sorted[j];
    PQS_CHECK_MSG(m < state.size(), "marked index out of range");
    if (j > 0) {
      PQS_CHECK_MSG(marked_sorted[j - 1] < m,
                    "marked indices must be sorted and unique");
    }
    sum -= state[m];
    saved[j] = state[m];
  }
  const Amplitude twice_mean =
      2.0 * sum / static_cast<double>(state.size() - marked_sorted.size());
  parallel_for(static_cast<SIdx>(state.size()), parallel_threads(state.size()),
               [&](SIdx i) {
    const auto idx = static_cast<std::size_t>(i);
    state[idx] = twice_mean - state[idx];
  });
  for (std::size_t j = 0; j < marked_sorted.size(); ++j) {
    state[marked_sorted[j]] = saved[j];
  }
}

Amplitude inner_product(std::span<const Amplitude> a,
                        std::span<const Amplitude> b) {
  PQS_CHECK_MSG(a.size() == b.size(), "dimension mismatch");
  // The two reductions stay serial: these span kernels are the reference
  // the SoA tiers are tested against, and an in-order sum is the same at any
  // thread count.
  Amplitude sum{0.0, 0.0};
  for (std::size_t i = 0; i < a.size(); ++i) {
    sum += std::conj(a[i]) * b[i];
  }
  return sum;
}

double norm_squared(std::span<const Amplitude> state) {
  double sum = 0.0;
  for (const Amplitude& a : state) {
    sum += std::norm(a);
  }
  return sum;
}

void scale(std::span<Amplitude> state, Amplitude s) {
  parallel_for(static_cast<SIdx>(state.size()), parallel_threads(state.size()),
               [&](SIdx i) { state[static_cast<std::size_t>(i)] *= s; });
}

}  // namespace pqs::qsim::kernels
