#include "qsim/measurement.h"

#include <cmath>

#include "common/check.h"
#include "common/math.h"

namespace pqs::qsim {

Index measure_all(StateVector& state, Rng& rng) {
  const Index outcome = state.sample(rng);
  const Amplitude kept = state.amplitude(outcome);
  state.soa().fill(Amplitude{0.0, 0.0});  // collapse: zero everything...
  state.set_amplitude(outcome, kept);     // ...except the observed state
  state.normalize();
  return outcome;
}

Index measure_block(StateVector& state, unsigned k, Rng& rng) {
  PQS_CHECK_MSG(k >= 1 && k <= state.num_qubits(), "invalid block bit count");
  const Index block = state.sample_block(k, rng);
  SoaVector& soa = state.soa();
  const std::size_t block_size = soa.size() >> k;
  const std::size_t lo = static_cast<std::size_t>(block) * block_size;
  for (std::size_t i = 0; i < soa.size(); ++i) {
    if (i < lo || i >= lo + block_size) {
      soa.set(i, Amplitude{0.0, 0.0});
    }
  }
  soa.invalidate_sums();
  state.normalize();
  return block;
}

std::map<Index, std::uint64_t> sample_counts(const StateVector& state,
                                             std::uint64_t shots, Rng& rng) {
  std::map<Index, std::uint64_t> counts;
  const DenseSampler sampler = state.index_sampler();
  for (std::uint64_t s = 0; s < shots; ++s) {
    ++counts[sampler.draw(rng)];
  }
  return counts;
}

std::vector<double> empirical_block_distribution(const StateVector& state,
                                                 unsigned k,
                                                 std::uint64_t shots,
                                                 Rng& rng) {
  PQS_CHECK(shots > 0);
  const DenseSampler sampler = state.block_sampler(k);
  std::vector<double> dist(pow2(k), 0.0);
  for (std::uint64_t s = 0; s < shots; ++s) {
    dist[sampler.draw(rng)] += 1.0;
  }
  for (auto& p : dist) {
    p /= static_cast<double>(shots);
  }
  return dist;
}

}  // namespace pqs::qsim
