#include "common/random.h"

#include <cmath>
#include <numeric>

#include "common/cumulative_table.h"

namespace pqs {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) {
    word = splitmix64(sm);
  }
  // xoshiro must not start in the all-zero state.
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) {
    s_[0] = 0x9e3779b97f4a7c15ULL;
  }
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::uniform_below(std::uint64_t bound) {
  PQS_CHECK(bound > 0);
  // Lemire's multiply-shift with rejection for exact uniformity.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  PQS_CHECK(lo <= hi);
  const auto span =
      static_cast<std::uint64_t>(hi - lo) + 1;  // hi-lo < 2^63, safe
  return lo + static_cast<std::int64_t>(uniform_below(span));
}

double Rng::uniform01() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  PQS_CHECK(lo <= hi);
  return lo + (hi - lo) * uniform01();
}

double Rng::normal() {
  if (have_spare_normal_) {
    have_spare_normal_ = false;
    return spare_normal_;
  }
  double u, v, r2;
  do {
    u = 2.0 * uniform01() - 1.0;
    v = 2.0 * uniform01() - 1.0;
    r2 = u * u + v * v;
  } while (r2 >= 1.0 || r2 == 0.0);
  const double f = std::sqrt(-2.0 * std::log(r2) / r2);
  spare_normal_ = v * f;
  have_spare_normal_ = true;
  return u * f;
}

bool Rng::bernoulli(double p) {
  PQS_CHECK(p >= 0.0 && p <= 1.0);
  return uniform01() < p;
}

std::vector<std::uint64_t> Rng::permutation(std::uint64_t n) {
  std::vector<std::uint64_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::uint64_t{0});
  for (std::uint64_t i = n; i > 1; --i) {
    const std::uint64_t j = uniform_below(i);
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

std::size_t Rng::sample_discrete(const std::vector<double>& weights) {
  return CumulativeTable(weights).pick(uniform01());
}

Rng Rng::split() { return Rng(next() ^ 0xd1b54a32d192ed03ULL); }

}  // namespace pqs
