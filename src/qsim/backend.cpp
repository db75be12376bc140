#include "qsim/backend.h"

#include <algorithm>
#include <cmath>
#include <complex>

#include "common/check.h"
#include "common/math.h"
#include "qsim/kernels.h"

namespace pqs::qsim {

BackendKind parse_backend_kind(std::string_view name) {
  if (name == "auto") {
    return BackendKind::kAuto;
  }
  if (name == "dense") {
    return BackendKind::kDense;
  }
  if (name == "symmetry") {
    return BackendKind::kSymmetry;
  }
  throw CheckFailure("unknown backend '" + std::string(name) +
                     "' (expected auto, dense, or symmetry)");
}

std::string to_string(BackendKind kind) {
  switch (kind) {
    case BackendKind::kAuto:
      return "auto";
    case BackendKind::kDense:
      return "dense";
    case BackendKind::kSymmetry:
      return "symmetry";
  }
  return "unknown";
}

BackendSpec BackendSpec::single_target(std::uint64_t n_items,
                                       std::uint64_t n_blocks, Index target) {
  return BackendSpec{n_items, n_blocks, {target}};
}

Backend::Backend(BackendSpec spec) : spec_(std::move(spec)) {
  PQS_CHECK_MSG(spec_.n_items >= 2, "need at least two database items");
  PQS_CHECK_MSG(spec_.n_blocks >= 1, "need at least one block");
  PQS_CHECK_MSG(spec_.n_items % spec_.n_blocks == 0,
                "block count must divide the database size");
  PQS_CHECK_MSG(!spec_.marked.empty(), "marked set must be non-empty");
  for (std::size_t j = 0; j < spec_.marked.size(); ++j) {
    PQS_CHECK_MSG(spec_.marked[j] < spec_.n_items,
                  "marked address out of range");
    PQS_CHECK_MSG(j == 0 || spec_.marked[j - 1] < spec_.marked[j],
                  "marked set must be sorted and unique");
  }
}

void Backend::apply_grover_iterations(Partition partition,
                                      std::uint64_t count) {
  for (std::uint64_t i = 0; i < count; ++i) {
    apply_oracle();
    if (partition == Partition::kGlobal) {
      apply_global_diffusion();
    } else {
      apply_block_diffusion();
    }
  }
}

Index Backend::sample(Rng& rng) const {
  return sampler(Measure::kIndex)->draw(rng);
}
Index Backend::sample_block(Rng& rng) const {
  return sampler(Measure::kBlock)->draw(rng);
}

bool symmetry_supports(const BackendSpec& spec) {
  if (spec.marked.empty() || spec.n_blocks < 1 || spec.n_items < 2 ||
      spec.n_items % spec.n_blocks != 0) {
    return false;
  }
  const std::uint64_t block_size = spec.n_items / spec.n_blocks;
  const Index block = spec.marked.front() / block_size;
  for (const Index m : spec.marked) {
    if (m / block_size != block) {
      return false;
    }
  }
  return true;
}

namespace {

/// 1/sqrt(N): every amplitude of |psi0> over N items.
Amplitude uniform_amplitude(std::uint64_t n_items) {
  return Amplitude{1.0 / std::sqrt(static_cast<double>(n_items)), 0.0};
}

}  // namespace

// ---------------------------------------------------------------------------
// DenseBackend
// ---------------------------------------------------------------------------

/// The exact engine: SoA amplitude planes (qsim/soa.h) driven by the
/// ISA-dispatched SoA kernels (qsim/kernels.h). It is the library's one
/// dense state; noise trajectories, snapshots and the Zalka hybrid argument
/// run on it.
class DenseBackend final : public Backend {
 public:
  explicit DenseBackend(BackendSpec spec) : Backend(std::move(spec)) {
    PQS_CHECK_MSG(spec_.n_items <= kMaxDenseItems,
                  "database too large for the dense backend; use the "
                  "symmetry backend");
    amps_ = SoaVector(spec_.n_items, uniform_amplitude(spec_.n_items));
  }

  BackendKind kind() const override { return BackendKind::kDense; }

  void reset_uniform() override {
    amps_.fill(uniform_amplitude(spec_.n_items));
  }

  void apply_oracle() override {
    kernels::phase_flip_indices(amps_, spec_.marked);
  }
  void apply_oracle_phase(double phi) override {
    kernels::phase_rotate_indices(amps_, spec_.marked, phi);
  }
  void apply_global_diffusion() override {
    kernels::reflect_about_uniform(amps_);
  }
  void apply_global_rotation(double phi) override {
    kernels::rotate_blocks_about_uniform(amps_, amps_.size(), phi);
  }
  void apply_block_diffusion() override {
    kernels::reflect_blocks_about_uniform(amps_, block_size());
  }
  void apply_block_rotation(double phi) override {
    kernels::rotate_blocks_about_uniform(amps_, block_size(), phi);
  }
  void apply_grover_iterations(Partition partition,
                               std::uint64_t count) override {
    kernels::grover_iterations(
        amps_, spec_.marked,
        partition == Partition::kGlobal ? amps_.size() : block_size(), count);
  }
  void apply_step3() override {
    if (spec_.marked.size() == 1) {
      kernels::reflect_non_target_about_their_mean(amps_,
                                                   spec_.marked.front());
    } else {
      kernels::reflect_unmarked_about_their_mean(amps_, spec_.marked);
    }
  }

  std::uint64_t apply_noise(const NoiseModel& model, Rng& rng) override {
    model.validate();  // an out-of-range rate must throw, never read clean
    if (!model.enabled()) {
      return 0;
    }
    PQS_CHECK_MSG(is_pow2(spec_.n_items),
                  "Pauli noise needs a power-of-two database");
    const unsigned n = log2_exact(spec_.n_items);
    return for_each_error_qubit(n, model.probability, rng, [&](unsigned q) {
      kernels::apply_pauli(amps_, n, q, sample_pauli_kind(model.kind, rng));
    });
  }

  double probability(Index x) const override {
    PQS_CHECK_MSG(x < amps_.size(), "index out of range");
    return std::norm(amps_.get(x));
  }
  double marked_probability() const override {
    double p = 0.0;
    for (const Index m : spec_.marked) {
      p += std::norm(amps_.get(m));
    }
    return p;
  }
  double block_probability(Index block) const override {
    PQS_CHECK_MSG(block < num_blocks(), "block index out of range");
    const std::size_t lo = static_cast<std::size_t>(block) * block_size();
    return kernels::norm_squared_range(amps_, lo, block_size());
  }
  std::vector<double> block_distribution() const override {
    return kernels::block_norms(amps_, block_size());
  }
  double norm_squared() const override {
    return kernels::norm_squared(amps_);
  }

  std::unique_ptr<ShotSampler> sampler(Measure what) const override {
    return std::make_unique<DenseSampler>(
        what == Measure::kBlock ? DenseSampler::blocks(amps_, block_size())
                                : DenseSampler::indices(amps_));
  }

  std::vector<Amplitude> amplitudes_copy() const override {
    return amps_.to_amplitudes();
  }

 private:
  SoaVector amps_;
};

// ---------------------------------------------------------------------------
// SymmetryBackend
// ---------------------------------------------------------------------------

/// The O(K) engine. Tracks the three per-state amplitudes the block-symmetric
/// evolution can produce:
///   a_t  on each of the m marked states,
///   a_b  on each of the block_size - m unmarked states of the target block,
///   a_o  on each state of the other K - 1 blocks.
/// Each operator updates the triple with the same arithmetic the dense
/// kernels perform on the repeated values, so observables agree with
/// DenseBackend to machine precision (cross-checked in tests/test_backend).
///
/// Noise (the block-class density argument): a Pauli error breaks the exact
/// three-value symmetry, so each class additionally carries an incoherent
/// residual mass r_c >= 0; the class's total probability mass is
/// size * |a_c|^2 + r_c. Every coherent operator above is an affine map
/// a -> alpha a + beta with |alpha| = 1 applied uniformly to a class, which
/// transforms the coherent mean exactly and leaves the residue invariant —
/// so the noiseless path is bit-identical to the residue-free engine. Each
/// Pauli updates the moments the way it permutes/re-signs the underlying
/// amplitudes: exact while the class is fully coherent (the first error),
/// an exchangeable-residue mean-field approximation afterwards. Success
/// statistics match dense trajectory averages to statistical tolerance
/// (tests/test_support_matrix); amplitude materialization is refused once
/// residue exists, because a class mean plus a mass has no faithful
/// amplitude vector.
class SymmetryBackend final : public Backend {
 public:
  explicit SymmetryBackend(BackendSpec spec) : Backend(std::move(spec)) {
    PQS_CHECK_MSG(symmetry_supports(spec_),
                  "symmetry backend needs the marked set inside one block");
    m_ = spec_.marked.size();
    rest_ = block_size() - m_;
    others_ = spec_.n_items - block_size();
    block_ = target_block();
    marked_offsets_.reserve(m_);
    const Index lo = block_ * block_size();
    for (const Index m : spec_.marked) {
      marked_offsets_.push_back(m - lo);
    }
    reset_uniform();
  }

  BackendKind kind() const override { return BackendKind::kSymmetry; }

  void reset_uniform() override {
    a_t_ = a_b_ = a_o_ = uniform_amplitude(spec_.n_items);
    r_t_ = r_b_ = r_o_ = 0.0;
  }

  void apply_oracle() override { a_t_ = -a_t_; }
  void apply_oracle_phase(double phi) override {
    a_t_ *= std::polar(1.0, phi);
  }

  void apply_global_diffusion() override {
    const Amplitude twice_mean = 2.0 * global_mean();
    a_t_ = twice_mean - a_t_;
    a_b_ = twice_mean - a_b_;
    a_o_ = twice_mean - a_o_;
  }
  void apply_global_rotation(double phi) override {
    const Amplitude add = (std::polar(1.0, phi) - 1.0) * global_mean();
    a_t_ += add;
    a_b_ += add;
    a_o_ += add;
  }

  void apply_block_diffusion() override {
    // Target block: inversion about its own mean. Every other block holds a
    // single repeated value, and inversion about the average fixes it.
    const Amplitude twice_mean = 2.0 * target_block_mean();
    a_t_ = twice_mean - a_t_;
    a_b_ = twice_mean - a_b_;
  }
  void apply_block_rotation(double phi) override {
    const Amplitude factor = std::polar(1.0, phi) - 1.0;
    const Amplitude add = factor * target_block_mean();
    a_t_ += add;
    a_b_ += add;
    // A uniform block's mean is its value: a <- a + (e^{i phi} - 1) a.
    a_o_ += factor * a_o_;
  }

  void apply_step3() override {
    PQS_CHECK_MSG(rest_ + others_ >= 2, "need at least two unmarked states");
    const Amplitude mean =
        (static_cast<double>(rest_) * a_b_ +
         static_cast<double>(others_) * a_o_) /
        static_cast<double>(rest_ + others_);
    const Amplitude twice_mean = 2.0 * mean;
    a_b_ = twice_mean - a_b_;
    a_o_ = twice_mean - a_o_;
  }

  std::uint64_t apply_noise(const NoiseModel& model, Rng& rng) override {
    model.validate();  // an out-of-range rate must throw, never read clean
    if (!model.enabled()) {
      return 0;
    }
    PQS_CHECK_MSG(m_ == 1,
                  "symmetry-backend noise needs a unique marked address");
    PQS_CHECK_MSG(is_pow2(spec_.n_items) && is_pow2(spec_.n_blocks),
                  "symmetry-backend noise needs power-of-two N and K "
                  "(per-qubit Pauli channels act on address bits)");
    const unsigned n = log2_exact(spec_.n_items);
    const unsigned split = n - log2_exact(spec_.n_blocks);
    return for_each_error_qubit(n, model.probability, rng, [&](unsigned q) {
      switch (sample_pauli_kind(model.kind, rng)) {
        case Pauli::kX:
          noise_x(q, split);
          break;
        case Pauli::kY:  // Y = i X Z: dephase, permute, global i
          noise_z(q, split);
          noise_x(q, split);
          times_i();
          break;
        case Pauli::kZ:
          noise_z(q, split);
          break;
      }
    });
  }

  double probability(Index x) const override {
    PQS_CHECK_MSG(x < spec_.n_items, "index out of range");
    if (block_of(x) != block_) {
      return mass_others() / static_cast<double>(others_);
    }
    return std::binary_search(spec_.marked.begin(), spec_.marked.end(), x)
               ? mass_marked() / static_cast<double>(m_)
               : mass_rest() / static_cast<double>(rest_);
  }
  double marked_probability() const override { return mass_marked(); }
  double block_probability(Index block) const override {
    PQS_CHECK_MSG(block < num_blocks(), "block index out of range");
    if (block != block_) {
      return mass_others() * static_cast<double>(block_size()) /
             static_cast<double>(others_);
    }
    return mass_marked() + mass_rest();
  }
  std::vector<double> block_distribution() const override {
    std::vector<double> dist(
        num_blocks(),
        num_blocks() > 1 ? mass_others() * static_cast<double>(block_size()) /
                               static_cast<double>(others_)
                         : 0.0);
    dist[block_] = mass_marked() + mass_rest();
    return dist;
  }
  double norm_squared() const override {
    return mass_marked() + mass_rest() + mass_others();
  }

  std::unique_ptr<ShotSampler> sampler(Measure what) const override {
    return std::make_unique<ClassSampler>(*this, what);
  }

  std::vector<Amplitude> amplitudes_copy() const override {
    PQS_CHECK_MSG(spec_.n_items <= kMaxDenseItems,
                  "state too large to materialize");
    PQS_CHECK_MSG(r_t_ + r_b_ + r_o_ < 1e-12,
                  "a noisy symmetry-backend state holds incoherent residual "
                  "mass and cannot be materialized as amplitudes; use the "
                  "dense backend for amplitude-level noise studies");
    std::vector<Amplitude> amps(spec_.n_items, a_o_);
    const std::size_t lo =
        static_cast<std::size_t>(block_) * block_size();
    std::fill(amps.begin() + lo, amps.begin() + lo + block_size(), a_b_);
    for (const Index m : spec_.marked) {
      amps[m] = a_t_;
    }
    return amps;
  }

 private:
  enum class Class { kMarked, kBlockRest, kOthers };

  /// The O(1) class draw behind the ShotSampler interface: no table to
  /// build. The three class masses are read once, when the sampler is
  /// built, and every draw picks a class from them and then a uniform
  /// member (or block) of it from the backend's shape.
  class ClassSampler final : public ShotSampler {
   public:
    ClassSampler(const SymmetryBackend& backend, Measure what)
        : backend_(backend),
          what_(what),
          w_t_(backend.mass_marked()),
          w_b_(backend.mass_rest()),
          total_(w_t_ + w_b_ + backend.mass_others()) {}
    Index draw(Rng& rng) const override {
      const Class c = pick(rng);
      return what_ == Measure::kBlock ? backend_.block_in(c, rng)
                                      : backend_.index_in(c, rng);
    }

   private:
    Class pick(Rng& rng) const {
      double u = rng.uniform01() * total_;
      u -= w_t_;
      if (u <= 0.0) {
        return Class::kMarked;
      }
      u -= w_b_;
      if (u <= 0.0 || backend_.others_ == 0) {
        return Class::kBlockRest;
      }
      return Class::kOthers;
    }

    const SymmetryBackend& backend_;
    Measure what_;
    double w_t_, w_b_, total_;  ///< marked and block-rest masses, their sum
  };

  /// A uniform member of class `c`: a full address.
  Index index_in(Class c, Rng& rng) const {
    switch (c) {
      case Class::kMarked:
        return spec_.marked[m_ == 1 ? 0 : rng.uniform_below(m_)];
      case Class::kBlockRest: {
        // The j-th unmarked offset of the target block: skip past marked
        // offsets in ascending order.
        std::uint64_t off = rest_ == 1 ? 0 : rng.uniform_below(rest_);
        for (const Index mo : marked_offsets_) {
          if (off >= mo) {
            ++off;
          }
        }
        return block_ * block_size() + off;
      }
      case Class::kOthers: {
        Index b = static_cast<Index>(rng.uniform_below(num_blocks() - 1));
        if (b >= block_) {
          ++b;
        }
        return b * block_size() + rng.uniform_below(block_size());
      }
    }
    return spec_.marked.front();  // unreachable
  }

  /// The block of a uniform member of class `c`.
  Index block_in(Class c, Rng& rng) const {
    switch (c) {
      case Class::kMarked:
      case Class::kBlockRest:
        return block_;
      case Class::kOthers: {
        Index b = static_cast<Index>(rng.uniform_below(num_blocks() - 1));
        return b >= block_ ? b + 1 : b;
      }
    }
    return block_;  // unreachable
  }

  Amplitude global_mean() const {
    return (static_cast<double>(m_) * a_t_ +
            static_cast<double>(rest_) * a_b_ +
            static_cast<double>(others_) * a_o_) /
           static_cast<double>(spec_.n_items);
  }
  Amplitude target_block_mean() const {
    return (static_cast<double>(m_) * a_t_ +
            static_cast<double>(rest_) * a_b_) /
           static_cast<double>(block_size());
  }

  /// Total probability mass of each class: coherent part + noise residue.
  double mass_marked() const {
    return static_cast<double>(m_) * std::norm(a_t_) + r_t_;
  }
  double mass_rest() const {
    return static_cast<double>(rest_) * std::norm(a_b_) + r_b_;
  }
  double mass_others() const {
    return static_cast<double>(others_) * std::norm(a_o_) + r_o_;
  }

  /// Multiply every class amplitude by i: the global phase of Y = i X Z.
  void times_i() {
    a_t_ *= Amplitude{0.0, 1.0};
    a_b_ *= Amplitude{0.0, 1.0};
    a_o_ *= Amplitude{0.0, 1.0};
  }

  /// Pauli X on address bit q. Bits below `split` index within a block,
  /// bits at/above it index the block: a within-block X swaps the target
  /// with its partner inside the target block (every other class is a
  /// permutation of itself), a block-bit X swaps the whole target block
  /// with another block. Updates are exact for fully coherent classes and
  /// use the exchangeable-residue expectation otherwise.
  void noise_x(unsigned q, unsigned split) {
    if (q < split) {
      const double b1 = static_cast<double>(rest_);  // B - 1 >= 1 here
      const double mt = mass_marked();
      const double mb = mass_rest();
      const Amplitude mu_t = a_t_;
      const Amplitude mu_b = a_b_;
      // The target now holds a class-typical member of the block rest...
      a_t_ = mu_b;
      r_t_ = std::max(0.0, mb / b1 - std::norm(a_t_));
      // ...and the block rest absorbed the old target amplitude.
      a_b_ = ((b1 - 1.0) * mu_b + mu_t) / b1;
      const double mb_new = mb - mb / b1 + mt;
      r_b_ = std::max(0.0, mb_new - b1 * std::norm(a_b_));
    } else {
      if (others_ == 0) {
        return;  // K = 1: no block bits to flip
      }
      const double b1 = static_cast<double>(rest_);
      const double oo = static_cast<double>(others_);
      const double bs = static_cast<double>(block_size());
      const double mt = mass_marked();
      const double mb = mass_rest();
      const double mo = mass_others();
      const double per_o = mo / oo;  // expected mass of one C_o state
      const Amplitude mu_t = a_t_;
      const Amplitude mu_b = a_b_;
      const Amplitude mu_o = a_o_;
      // The target block becomes a copy of a typical other block...
      a_t_ = mu_o;
      r_t_ = std::max(0.0, per_o - std::norm(a_t_));
      a_b_ = mu_o;
      r_b_ = std::max(0.0, b1 * (per_o - std::norm(a_b_)));
      // ...and the other blocks absorb the old target block.
      a_o_ = ((oo - bs) * mu_o + mu_t + b1 * mu_b) / oo;
      const double mo_new = mo - bs * per_o + mt + mb;
      r_o_ = std::max(0.0, mo_new - oo * std::norm(a_o_));
    }
  }

  /// Pauli Z on address bit q: flips the sign of every state with that bit
  /// set. The target's sign is exact; for the other classes the coherent
  /// mean scales by the exact (unset - set) member imbalance while the
  /// class mass is unchanged — dephasing converts coherent mass into
  /// residue.
  void noise_z(unsigned q, unsigned split) {
    if (q < split) {
      // Within-block bit: exactly half of every block has the bit set.
      const bool t_bit = ((spec_.marked.front() >> q) & 1) != 0;
      if (t_bit) {
        a_t_ = -a_t_;
      }
      if (rest_ > 0) {
        const double mb = mass_rest();
        const double n1 =
            static_cast<double>(block_size() / 2) - (t_bit ? 1.0 : 0.0);
        const double n0 = static_cast<double>(rest_) - n1;
        a_b_ *= (n0 - n1) / static_cast<double>(rest_);
        r_b_ = std::max(0.0, mb - static_cast<double>(rest_) *
                                      std::norm(a_b_));
      }
      if (others_ > 0) {
        // Equal halves in every other block: the coherent mean vanishes.
        r_o_ = mass_others();
        a_o_ = Amplitude{0.0, 0.0};
      }
    } else {
      // Block bit: every state of a block shares the block index's sign.
      const bool tb_bit = ((block_ >> (q - split)) & 1) != 0;
      if (tb_bit) {
        a_t_ = -a_t_;
        a_b_ = -a_b_;
      }
      if (others_ > 0) {
        const double mo = mass_others();
        const double k_others = static_cast<double>(num_blocks() - 1);
        const double n1 = static_cast<double>(num_blocks() / 2) -
                          (tb_bit ? 1.0 : 0.0);
        const double n0 = k_others - n1;
        a_o_ *= (n0 - n1) / k_others;
        r_o_ = std::max(0.0, mo - static_cast<double>(others_) *
                                      std::norm(a_o_));
      }
    }
  }

  std::uint64_t m_ = 0;       ///< marked states
  std::uint64_t rest_ = 0;    ///< unmarked states of the target block
  std::uint64_t others_ = 0;  ///< states outside the target block
  Index block_ = 0;           ///< the target block (target_block())
  std::vector<Index> marked_offsets_;  ///< marked addresses within the block
  Amplitude a_t_, a_b_, a_o_;
  /// Incoherent residual mass per class (zero until noise fires).
  double r_t_ = 0.0, r_b_ = 0.0, r_o_ = 0.0;
};

// ---------------------------------------------------------------------------
// Factory and circuit execution
// ---------------------------------------------------------------------------

BackendKind resolve_backend(BackendKind kind, const BackendSpec& spec,
                            const NoiseModel& noise) {
  if (kind == BackendKind::kAuto) {
    const bool dense_fits = spec.n_items <= kMaxDenseItems;
    kind = symmetry_supports(spec) && (!noise.enabled() || !dense_fits)
               ? BackendKind::kSymmetry
               : BackendKind::kDense;
  }
  if (kind == BackendKind::kDense) {
    PQS_CHECK_MSG(spec.n_items <= kMaxDenseItems,
                  "database too large for the dense backend; the symmetry "
                  "backend runs it when the marked set lies in one block");
  } else {
    PQS_CHECK_MSG(symmetry_supports(spec),
                  "symmetry backend needs a non-empty marked set inside a "
                  "single block");
  }
  return kind;
}

std::unique_ptr<Backend> make_backend(BackendKind kind,
                                      const BackendSpec& spec) {
  switch (resolve_backend(kind, spec)) {
    case BackendKind::kDense:
      return std::make_unique<DenseBackend>(spec);
    case BackendKind::kSymmetry:
      return std::make_unique<SymmetryBackend>(spec);
    case BackendKind::kAuto:
      break;  // unreachable: resolve_backend never returns kAuto
  }
  throw CheckFailure("unresolved backend kind");
}

bool backend_supports_noise(BackendKind kind, const BackendSpec& spec) {
  switch (resolve_backend(kind, spec)) {
    case BackendKind::kDense:
      return is_pow2(spec.n_items);
    case BackendKind::kSymmetry:
      return is_pow2(spec.n_items) && is_pow2(spec.n_blocks) &&
             spec.marked.size() == 1;
    case BackendKind::kAuto:
      break;  // unreachable: resolve_backend never returns kAuto
  }
  return false;
}

void require_noise_support(BackendKind kind, const BackendSpec& spec,
                           std::string_view what) {
  PQS_CHECK_MSG(backend_supports_noise(kind, spec),
                std::string(what) + ": the " +
                    to_string(resolve_backend(kind, spec)) +
                    " backend cannot run Pauli noise on this problem shape "
                    "(dense needs N = 2^n; symmetry additionally needs "
                    "K = 2^k and a unique marked address)");
}

namespace {

struct BackendApplyVisitor {
  Backend& backend;

  void operator()(const OracleOp&) const { backend.apply_oracle(); }
  void operator()(const OraclePhaseOp& op) const {
    backend.apply_oracle_phase(op.phi);
  }
  void operator()(const GlobalDiffusionOp&) const {
    backend.apply_global_diffusion();
  }
  void operator()(const BlockDiffusionOp& op) const {
    check_blocks(op.k);
    backend.apply_block_diffusion();
  }
  void operator()(const BlockRotationOp& op) const {
    check_blocks(op.k);
    backend.apply_block_rotation(op.phi);
  }
  void operator()(const NonTargetMeanOp&) const { backend.apply_step3(); }

 private:
  void check_blocks(unsigned k) const {
    PQS_CHECK_MSG(backend.num_blocks() == pow2(k),
                  "circuit block granularity does not match the backend's "
                  "block structure");
  }
};

}  // namespace

void apply_op(Backend& backend, const Op& op) {
  std::visit(BackendApplyVisitor{backend}, op);
}

std::uint64_t apply_circuit(Backend& backend, const Circuit& circuit) {
  PQS_CHECK_MSG(backend.num_items() == pow2(circuit.num_qubits()),
                "circuit dimension does not match the backend");
  std::uint64_t queries = 0;
  for (const auto& op : circuit.ops()) {
    apply_op(backend, op);
    queries += op_query_cost(op);
  }
  return queries;
}

}  // namespace pqs::qsim
