// Streaming statistics for the Monte-Carlo baselines and the experiment
// reports, and the signed amplitude bars of the figure benches.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

namespace pqs {

/// Welford streaming accumulator: mean / variance / min / max in one pass.
class RunningStats {
 public:
  void add(double x);

  std::uint64_t count() const { return count_; }
  double mean() const;
  /// Unbiased sample variance (n-1 denominator); 0 for fewer than 2 samples.
  double variance() const;
  double stddev() const;
  /// Standard error of the mean.
  double sem() const;
  /// Half-width of the ~95% normal confidence interval (1.96 * sem).
  double ci95_halfwidth() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// One-line signed bar chart used to render amplitude pictures like the
/// paper's Figure 1 and Figure 5 (positive bars right, negative bars left).
std::string signed_bar(double value, double max_abs, std::size_t half_width);

}  // namespace pqs
