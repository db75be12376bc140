#include "partial/twelve.h"

#include <cmath>
#include <memory>
#include <sstream>

#include "common/check.h"
#include "common/stats.h"

namespace pqs::partial {

namespace {

using qsim::Amplitude;
using qsim::Index;

std::vector<double> real_parts(const std::vector<Amplitude>& amps) {
  std::vector<double> out(amps.size());
  for (std::size_t i = 0; i < amps.size(); ++i) {
    out[i] = amps[i].real();
  }
  return out;
}

/// The five-stage pattern on an arbitrary (N, K) database, run on the
/// chosen engine. When `stages` is non-null each stage's amplitudes are
/// materialized into it (both engines can, for N this small). Returns the
/// evolved backend for the final observables.
std::unique_ptr<qsim::Backend> run_pattern(
    std::uint64_t n_items, std::uint64_t k_blocks, Index target,
    qsim::BackendKind kind,
    std::array<std::vector<double>, Figure1Trace::kStages>* stages) {
  PQS_CHECK(k_blocks >= 2 && n_items % k_blocks == 0);
  PQS_CHECK(n_items / k_blocks >= 2);
  PQS_CHECK(target < n_items);

  const auto spec =
      qsim::BackendSpec::single_target(n_items, k_blocks, target);
  auto backend = qsim::make_backend(kind, spec);
  const auto record = [&](std::size_t stage) {
    if (stages != nullptr) {
      (*stages)[stage] = real_parts(backend->amplitudes_copy());
    }
  };
  record(0);                         // (A) uniform superposition

  backend->apply_oracle();           // (B), query 1
  record(1);

  backend->apply_block_diffusion();  // (C)
  record(2);

  backend->apply_oracle();           // (D), query 2
  record(3);

  backend->apply_global_diffusion(); // (E)
  record(4);
  return backend;
}

}  // namespace

std::string Figure1Trace::render() const {
  static constexpr const char* kLabels[kStages] = {
      "(A) uniform superposition",
      "(B) invert target amplitude          [query 1]",
      "(C) invert about block averages",
      "(D) invert target amplitude again    [query 2]",
      "(E) invert about global average"};
  double max_abs = 1e-12;
  for (const auto& stage : stages) {
    for (const double a : stage) {
      max_abs = std::max(max_abs, std::fabs(a));
    }
  }
  std::ostringstream os;
  for (std::size_t s = 0; s < kStages; ++s) {
    os << kLabels[s] << '\n';
    for (std::size_t i = 0; i < stages[s].size(); ++i) {
      os.setf(std::ios::fixed);
      os.precision(4);
      os << "  " << (i < 10 ? " " : "") << i << "  "
         << signed_bar(stages[s][i], max_abs, 18) << "  ";
      os.width(8);
      os << stages[s][i] << '\n';
    }
    os << '\n';
  }
  return os.str();
}

Figure1Trace run_figure1(Index target, qsim::BackendKind backend) {
  constexpr std::uint64_t kItems = 12;
  constexpr std::uint64_t kBlocks = 3;
  PQS_CHECK_MSG(target < kItems, "target must be one of the twelve items");

  Figure1Trace trace;
  const auto engine =
      run_pattern(kItems, kBlocks, target, backend, &trace.stages);
  trace.queries = 2;
  trace.block_probability = engine->block_probability(engine->target_block());
  trace.target_probability = engine->marked_probability();
  return trace;
}

double two_query_block_probability(std::uint64_t n_items,
                                   std::uint64_t k_blocks, Index target,
                                   qsim::BackendKind backend) {
  const auto engine =
      run_pattern(n_items, k_blocks, target, backend, nullptr);
  return engine->block_probability(engine->target_block());
}

std::vector<TwoQueryInstance> two_query_instances(std::uint64_t max_items) {
  // Exactness condition (derived by requiring the global mean at stage (E)
  // to be half the non-target amplitude): 2 (N - N/K - 2) = N, i.e.
  // N (K - 2) = 4 K, i.e. N = 4K / (K - 2).
  std::vector<TwoQueryInstance> out;
  for (std::uint64_t k = 3; k <= max_items; ++k) {
    if ((4 * k) % (k - 2) != 0) {
      continue;
    }
    const std::uint64_t n = 4 * k / (k - 2);
    if (n <= max_items && n % k == 0 && n / k >= 2) {
      out.push_back(TwoQueryInstance{n, k});
    }
  }
  return out;
}

}  // namespace pqs::partial
