#include "qsim/diffusion.h"

#include "common/check.h"
#include "common/math.h"
#include "qsim/kernels.h"
#include "qsim/parallel.h"

namespace pqs::qsim {

void apply_global_diffusion_gate_level(StateVector& state) {
  const unsigned n = state.num_qubits();
  const Gate2 h = gates::H();
  const Gate2 x = gates::X();
  for (unsigned q = 0; q < n; ++q) {
    state.apply_gate1(q, h);
  }
  for (unsigned q = 0; q < n; ++q) {
    state.apply_gate1(q, x);
  }
  state.phase_flip_mask_all_ones(pow2(n) - 1);
  for (unsigned q = 0; q < n; ++q) {
    state.apply_gate1(q, x);
  }
  for (unsigned q = 0; q < n; ++q) {
    state.apply_gate1(q, h);
  }
  state.scale(Amplitude{-1.0, 0.0});
}

void apply_block_diffusion_gate_level(StateVector& state, unsigned k) {
  const unsigned n = state.num_qubits();
  PQS_CHECK_MSG(k >= 1 && k < n, "block bits out of range");
  const unsigned low = n - k;  // qubits 0..low-1 are the within-block address
  const Gate2 h = gates::H();
  const Gate2 x = gates::X();
  for (unsigned q = 0; q < low; ++q) {
    state.apply_gate1(q, h);
  }
  for (unsigned q = 0; q < low; ++q) {
    state.apply_gate1(q, x);
  }
  state.phase_flip_mask_all_ones(pow2(low) - 1);
  for (unsigned q = 0; q < low; ++q) {
    state.apply_gate1(q, x);
  }
  for (unsigned q = 0; q < low; ++q) {
    state.apply_gate1(q, h);
  }
  state.scale(Amplitude{-1.0, 0.0});
}

std::vector<Amplitude> global_diffusion_matrix(unsigned n_qubits) {
  const std::size_t dim = pow2(n_qubits);
  PQS_CHECK_MSG(dim <= 4096, "dense matrices are for test-sized states");
  std::vector<Amplitude> m(dim * dim, Amplitude{0.0, 0.0});
  const double two_over_n = 2.0 / static_cast<double>(dim);
  for (std::size_t r = 0; r < dim; ++r) {
    for (std::size_t c = 0; c < dim; ++c) {
      m[r * dim + c] = Amplitude{two_over_n - (r == c ? 1.0 : 0.0), 0.0};
    }
  }
  return m;
}

std::vector<Amplitude> block_diffusion_matrix(unsigned n_qubits, unsigned k) {
  const std::size_t dim = pow2(n_qubits);
  PQS_CHECK_MSG(dim <= 4096, "dense matrices are for test-sized states");
  PQS_CHECK_MSG(k >= 1 && k < n_qubits, "block bits out of range");
  const std::size_t block = dim >> k;
  std::vector<Amplitude> m(dim * dim, Amplitude{0.0, 0.0});
  const double two_over_b = 2.0 / static_cast<double>(block);
  for (std::size_t r = 0; r < dim; ++r) {
    for (std::size_t c = 0; c < dim; ++c) {
      const bool same_block = (r / block) == (c / block);
      m[r * dim + c] = Amplitude{
          (same_block ? two_over_b : 0.0) - (r == c ? 1.0 : 0.0), 0.0};
    }
  }
  return m;
}

void apply_dense_matrix(StateVector& state,
                        const std::vector<Amplitude>& matrix) {
  const std::size_t dim = state.dimension();
  PQS_CHECK_MSG(matrix.size() == dim * dim, "matrix size mismatch");
  // This is the reference path the kernel-equivalence tests lean on, and
  // they apply thousands of test-sized matrices: reuse one scratch buffer
  // across calls instead of allocating per call, and let the O(dim^2) row
  // loop fan out over threads (rows are independent).
  static thread_local std::vector<Amplitude> scratch;
  scratch.resize(dim);
  // scratch is thread_local, so inside the parallel region each worker would
  // see its own (empty) instance; share the caller's buffer via a raw pointer.
  Amplitude* const out = scratch.data();
  const std::span<const double> re = state.re();
  const std::span<const double> im = state.im();
  // The work is the whole dim x dim matrix, not the dim rows.
  parallel_for(static_cast<std::int64_t>(dim), parallel_threads(dim * dim),
               [&](std::int64_t r) {
    const Amplitude* row = matrix.data() + static_cast<std::size_t>(r) * dim;
    Amplitude sum{0.0, 0.0};
    for (std::size_t c = 0; c < dim; ++c) {
      sum += row[c] * Amplitude{re[c], im[c]};
    }
    out[static_cast<std::size_t>(r)] = sum;
  });
  SoaVector& soa = state.soa();
  for (std::size_t i = 0; i < dim; ++i) {
    soa.set(i, scratch[i]);
  }
  soa.invalidate_sums();
}

}  // namespace pqs::qsim
