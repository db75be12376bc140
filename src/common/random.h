// Deterministic, seedable random number generation.
//
// Everything stochastic in the library (measurement sampling, classical
// Monte-Carlo baselines, randomized test sweeps) draws from pqs::Rng so that
// experiments are reproducible from a single seed printed in each report.
//
// Engine: xoshiro256** (Blackman & Vigna), seeded via splitmix64 — the
// community-standard small fast generator; good enough statistical quality for
// Monte-Carlo query counting, and dependency-free.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace pqs {

/// splitmix64 step; used for seeding and as a cheap stateless hash.
std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256** engine with convenience distributions.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// UniformRandomBitGenerator interface (usable with <random> distributions).
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return next(); }

  /// Next raw 64-bit value.
  std::uint64_t next();

  /// Uniform in [0, bound) without modulo bias (Lemire's method + rejection).
  std::uint64_t uniform_below(std::uint64_t bound);

  /// Uniform in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double uniform01();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Standard normal via Marsaglia polar method.
  double normal();

  /// Bernoulli(p).
  bool bernoulli(double p);

  /// A uniformly random permutation of {0, 1, ..., n-1} (Fisher-Yates).
  std::vector<std::uint64_t> permutation(std::uint64_t n);

  /// Sample an index from an (unnormalized) nonnegative weight vector: one
  /// CumulativeTable pick (common/cumulative_table.h), so a zero-weight
  /// index is never returned. To draw many times from the same weights,
  /// build the table once and pick from it.
  std::size_t sample_discrete(const std::vector<double>& weights);

  /// Split off an independently seeded child generator (for parallel streams).
  Rng split();

 private:
  std::array<std::uint64_t, 4> s_;
  bool have_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

}  // namespace pqs
