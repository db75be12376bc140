#include "partial/analytic.h"

#include <cmath>

#include "common/check.h"
#include "common/math.h"

namespace pqs::partial {

namespace {
using Cplx = std::complex<double>;
}

double SubspaceState::target_block_probability() const {
  return std::norm(a_t) + std::norm(a_b);
}

SubspaceModel::SubspaceModel(std::uint64_t n_items, std::uint64_t n_blocks,
                             std::uint64_t n_marked)
    : n_(n_items), k_(n_blocks), m_(n_marked) {
  PQS_CHECK_MSG(k_ >= 2, "partial search needs at least two blocks");
  PQS_CHECK_MSG(n_ % k_ == 0, "blocks must partition the database evenly");
  PQS_CHECK_MSG(m_ >= 1, "need at least one marked item");
  PQS_CHECK_MSG(m_ < n_ / k_,
                "marked set must leave room in its block (M < N/K)");

  const auto nd = static_cast<double>(n_);
  const auto kd = static_cast<double>(k_);
  const auto md = static_cast<double>(m_);
  const double block = nd / kd;

  w_b_ = std::sqrt(block - md);
  w_o_ = std::sqrt((kd - 1.0) * block);

  const double inv_sqrt_n = 1.0 / std::sqrt(nd);
  u_t_ = std::sqrt(md) * inv_sqrt_n;
  u_b_ = w_b_ * inv_sqrt_n;
  u_o_ = w_o_ * inv_sqrt_n;

  const double inv_sqrt_block = 1.0 / std::sqrt(block);
  v_t_ = std::sqrt(md) * inv_sqrt_block;
  v_b_ = w_b_ * inv_sqrt_block;
}

SubspaceState SubspaceModel::uniform_start() const {
  return SubspaceState{Cplx{u_t_, 0.0}, Cplx{u_b_, 0.0}, Cplx{u_o_, 0.0}};
}

SubspaceState SubspaceModel::apply_global(const SubspaceState& s) const {
  // It: flip the target amplitude.
  const Cplx t = -s.a_t;
  // I0 = 2|u><u| - I with u = (u_t, u_b, u_o).
  const Cplx overlap = u_t_ * t + u_b_ * s.a_b + u_o_ * s.a_o;
  return SubspaceState{
      2.0 * overlap * u_t_ - t,
      2.0 * overlap * u_b_ - s.a_b,
      2.0 * overlap * u_o_ - s.a_o,
  };
}

SubspaceState SubspaceModel::apply_local(const SubspaceState& s) const {
  // It: flip the target amplitude.
  const Cplx t = -s.a_t;
  // I0,[N/K] = 2|v><v| - I inside the target block; non-target blocks hold
  // block-uniform states, which the reflection fixes.
  const Cplx overlap = v_t_ * t + v_b_ * s.a_b;
  return SubspaceState{
      2.0 * overlap * v_t_ - t,
      2.0 * overlap * v_b_ - s.a_b,
      s.a_o,
  };
}

SubspaceState SubspaceModel::apply_local_generalized(const SubspaceState& s,
                                                     double phi,
                                                     double chi) const {
  // Oracle phase on the target.
  const Cplx t = std::polar(1.0, phi) * s.a_t;
  // Inside the target block: I + (e^{i chi} - 1)|v><v| on (a_t, a_b).
  // In non-target blocks the state is block-uniform, so the rotation
  // multiplies it by the full phase factor... no: I + (e^{i chi}-1)|u><u|
  // acts on the block-uniform component as multiplication by e^{i chi}.
  const Cplx u_factor = std::polar(1.0, chi) - 1.0;
  const Cplx overlap = v_t_ * t + v_b_ * s.a_b;
  return SubspaceState{
      t + u_factor * overlap * v_t_,
      s.a_b + u_factor * overlap * v_b_,
      std::polar(1.0, chi) * s.a_o,
  };
}

SubspaceState SubspaceModel::apply_step3(const SubspaceState& s) const {
  // One query marks the target set on an ancilla; controlled on the ancilla
  // being clear, all other amplitudes are inverted about their common mean.
  const Cplx sum = s.a_b * w_b_ + s.a_o * w_o_;
  const Cplx twice_mean = 2.0 * sum / static_cast<double>(n_ - m_);
  return SubspaceState{
      s.a_t,
      twice_mean * w_b_ - s.a_b,
      twice_mean * w_o_ - s.a_o,
  };
}

SubspaceState SubspaceModel::run_grk(std::uint64_t l1, std::uint64_t l2) const {
  SubspaceState s = uniform_start();
  for (std::uint64_t i = 0; i < l1; ++i) {
    s = apply_global(s);
  }
  for (std::uint64_t i = 0; i < l2; ++i) {
    s = apply_local(s);
  }
  return apply_step3(s);
}

Cplx SubspaceModel::per_state_target_rest(const SubspaceState& s) const {
  return s.a_b / w_b_;
}

double SubspaceModel::step3_residual(const SubspaceState& s) const {
  const SubspaceState after = apply_step3(s);
  return std::abs(after.a_o);
}

}  // namespace pqs::partial
