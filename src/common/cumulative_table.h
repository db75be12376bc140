// Inverse-CDF sampling from a table built once.
//
// A CumulativeTable holds the running sums of a non-negative weight vector.
// Building it is one O(n) pass; pick(u) maps a uniform u in [0, 1) to an
// index with one binary search, O(log n). Every discrete draw in the library
// goes through it: Rng::sample_discrete, and the dense engine's shot
// samplers (qsim/sampler.h), whose tables hold block or chunk masses.
//
// pick never returns a zero-weight index. u = 0 skips leading empty bins,
// and a u * total that roundoff lands on or past the last running sum
// clamps to the last positive bin.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace pqs {

class CumulativeTable {
 public:
  /// Checked: at least one weight, every weight >= 0 (NaN is rejected), and
  /// a positive, finite total.
  explicit CumulativeTable(std::span<const double> weights);

  std::size_t size() const { return sums_.size(); }
  /// The sum of all weights (the last running sum).
  double total() const { return sums_.back(); }

  /// Where u * total() falls: the bin, and how far past the start of that
  /// bin it lies, in weight units. The offset is below the bin's weight
  /// except when u clamps to the last positive bin.
  struct Hit {
    std::size_t index = 0;
    double offset = 0.0;
  };
  /// u must lie in [0, 1); the returned bin always has positive weight.
  Hit locate(double u) const;
  std::size_t pick(double u) const { return locate(u).index; }

 private:
  std::vector<double> sums_;  ///< sums_[i] = w_0 + ... + w_i
  std::size_t last_positive_ = 0;
};

}  // namespace pqs
