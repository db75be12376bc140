#include "qsim/state_vector.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.h"
#include "common/math.h"
#include "common/stats.h"
#include "qsim/kernels.h"

namespace pqs::qsim {

StateVector::StateVector(unsigned n_qubits) : n_qubits_(n_qubits) {
  PQS_CHECK_MSG(n_qubits >= 1 && n_qubits <= kMaxQubits,
                "qubit count out of supported range");
  soa_ = SoaVector(pow2(n_qubits));
  soa_.set(0, Amplitude{1.0, 0.0});
}

StateVector StateVector::zero_state(unsigned n_qubits) {
  return StateVector(n_qubits);
}

StateVector StateVector::uniform(unsigned n_qubits) {
  StateVector sv(n_qubits);
  const double amp = 1.0 / std::sqrt(static_cast<double>(sv.dimension()));
  sv.soa_.fill(Amplitude{amp, 0.0});
  return sv;
}

StateVector StateVector::basis(unsigned n_qubits, Index x) {
  StateVector sv(n_qubits);
  PQS_CHECK_MSG(x < sv.dimension(), "basis index out of range");
  sv.soa_.set(0, Amplitude{0.0, 0.0});
  sv.soa_.set(x, Amplitude{1.0, 0.0});
  return sv;
}

StateVector StateVector::from_amplitudes(std::vector<Amplitude> amps) {
  PQS_CHECK_MSG(is_pow2(amps.size()), "amplitude count must be a power of two");
  StateVector sv(log2_exact(amps.size()));
  sv.soa_ = SoaVector::from_amplitudes(amps);
  return sv;
}

Amplitude StateVector::amplitude(Index x) const {
  PQS_CHECK_MSG(x < dimension(), "index out of range");
  return soa_.get(x);
}

void StateVector::set_amplitude(Index x, Amplitude a) {
  PQS_CHECK_MSG(x < dimension(), "index out of range");
  soa_.set(x, a);
  soa_.invalidate_sums();
}

double StateVector::norm_squared() const { return kernels::norm_squared(soa_); }

double StateVector::norm() const { return std::sqrt(norm_squared()); }

void StateVector::normalize() {
  const double n = norm();
  PQS_CHECK_MSG(n > 0.0, "cannot normalize the zero vector");
  kernels::scale(soa_, Amplitude{1.0 / n, 0.0});
}

double StateVector::linf_distance(const StateVector& other) const {
  PQS_CHECK_MSG(dimension() == other.dimension(), "dimension mismatch");
  double d = 0.0;
  for (std::size_t i = 0; i < dimension(); ++i) {
    d = std::max(d, std::abs(soa_.get(i) - other.soa_.get(i)));
  }
  return d;
}

Amplitude StateVector::inner(const StateVector& other) const {
  return kernels::inner_product(soa_, other.soa_);
}

double StateVector::fidelity(const StateVector& other) const {
  return std::norm(inner(other));
}

double StateVector::probability(Index x) const {
  PQS_CHECK_MSG(x < dimension(), "index out of range");
  return std::norm(soa_.get(x));
}

double StateVector::block_probability(unsigned k, Index block) const {
  PQS_CHECK_MSG(k <= n_qubits_, "k exceeds qubit count");
  PQS_CHECK_MSG(block < pow2(k), "block index out of range");
  const std::size_t block_size = dimension() >> k;
  const std::size_t lo = static_cast<std::size_t>(block) * block_size;
  return kernels::norm_squared_range(soa_, lo, block_size);
}

std::vector<double> StateVector::block_distribution(unsigned k) const {
  PQS_CHECK_MSG(k <= n_qubits_, "k exceeds qubit count");
  return kernels::block_norms(soa_, dimension() >> k);
}

void StateVector::apply_gate1(unsigned q, const Gate2& g) {
  kernels::apply_gate1(soa_, n_qubits_, q, g);
}

void StateVector::apply_controlled_gate1(std::uint64_t control_mask,
                                         unsigned q, const Gate2& g) {
  kernels::apply_controlled_gate1(soa_, n_qubits_, control_mask, q, g);
}

void StateVector::apply_gate2(unsigned q_high, unsigned q_low,
                              const Gate4& g) {
  kernels::apply_gate2(soa_, n_qubits_, q_high, q_low, g);
}

void StateVector::apply_hadamard_all() {
  const Gate2 h = gates::H();
  for (unsigned q = 0; q < n_qubits_; ++q) {
    kernels::apply_gate1(soa_, n_qubits_, q, h);
  }
}

void StateVector::phase_flip(Index t) {
  PQS_CHECK_MSG(t < dimension(), "target index out of range");
  kernels::phase_flip_index(soa_, t);
}

void StateVector::phase_rotate(Index t, double phi) {
  PQS_CHECK_MSG(t < dimension(), "target index out of range");
  kernels::phase_rotate_index(soa_, t, phi);
}

void StateVector::phase_flip_indices(std::span<const Index> marked_sorted) {
  kernels::phase_flip_indices(soa_, marked_sorted);
}

void StateVector::phase_rotate_indices(std::span<const Index> marked_sorted,
                                       double phi) {
  kernels::phase_rotate_indices(soa_, marked_sorted, phi);
}

void StateVector::phase_flip_mask_all_ones(std::uint64_t mask) {
  kernels::phase_flip_mask_all_ones(soa_, mask);
}

void StateVector::scale(Amplitude s) { kernels::scale(soa_, s); }

void StateVector::reflect_about_uniform() {
  kernels::reflect_about_uniform(soa_);
}

void StateVector::reflect_blocks_about_uniform(unsigned k) {
  PQS_CHECK_MSG(k <= n_qubits_, "k exceeds qubit count");
  kernels::reflect_blocks_about_uniform(soa_, dimension() >> k);
}

void StateVector::rotate_blocks_about_uniform(unsigned k, double phi) {
  PQS_CHECK_MSG(k <= n_qubits_, "k exceeds qubit count");
  kernels::rotate_blocks_about_uniform(soa_, dimension() >> k, phi);
}

void StateVector::reflect_non_target_about_their_mean(Index t) {
  kernels::reflect_non_target_about_their_mean(soa_, t);
}

void StateVector::reflect_unmarked_about_their_mean(
    std::span<const Index> marked_sorted) {
  kernels::reflect_unmarked_about_their_mean(soa_, marked_sorted);
}

DenseSampler StateVector::index_sampler() const {
  return DenseSampler::indices(soa_);
}

DenseSampler StateVector::block_sampler(unsigned k) const {
  PQS_CHECK_MSG(k <= n_qubits_, "k exceeds qubit count");
  return DenseSampler::blocks(soa_, dimension() >> k);
}

Index StateVector::sample(Rng& rng) const { return index_sampler().draw(rng); }

Index StateVector::sample_block(unsigned k, Rng& rng) const {
  return block_sampler(k).draw(rng);
}

std::string StateVector::render_real_amplitudes(unsigned k_blocks,
                                                std::size_t half_width) const {
  PQS_CHECK_MSG(dimension() <= 64,
                "render_real_amplitudes is meant for small states");
  const double* re = soa_.re();
  double max_abs = 1e-12;
  for (std::size_t i = 0; i < dimension(); ++i) {
    max_abs = std::max(max_abs, std::abs(re[i]));
  }
  const std::size_t block_size =
      k_blocks == 0 ? dimension() : (dimension() >> k_blocks);
  std::ostringstream os;
  for (std::size_t i = 0; i < dimension(); ++i) {
    if (k_blocks != 0 && i % block_size == 0) {
      os << "-- block " << i / block_size << " --\n";
    }
    os.setf(std::ios::fixed);
    os.precision(4);
    os.width(3);
    os << i << "  " << signed_bar(re[i], max_abs, half_width) << "  ";
    os.width(8);
    os << re[i] << '\n';
  }
  return os.str();
}

StateVector uniform_state(unsigned n_qubits) {
  return StateVector::uniform(n_qubits);
}

}  // namespace pqs::qsim
