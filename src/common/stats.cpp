#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace pqs {

void RunningStats::add(double x) {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::mean() const {
  PQS_CHECK_MSG(count_ > 0, "mean of empty accumulator");
  return mean_;
}

double RunningStats::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::sem() const {
  if (count_ == 0) {
    return 0.0;
  }
  return stddev() / std::sqrt(static_cast<double>(count_));
}

double RunningStats::ci95_halfwidth() const { return 1.96 * sem(); }

std::string signed_bar(double value, double max_abs, std::size_t half_width) {
  PQS_CHECK(max_abs > 0.0);
  const double frac = std::clamp(value / max_abs, -1.0, 1.0);
  const auto len = static_cast<std::size_t>(
      std::round(std::fabs(frac) * static_cast<double>(half_width)));
  std::string out(2 * half_width + 1, ' ');
  out[half_width] = '|';
  if (frac >= 0.0) {
    for (std::size_t i = 0; i < len; ++i) {
      out[half_width + 1 + i] = '#';
    }
  } else {
    for (std::size_t i = 0; i < len; ++i) {
      out[half_width - 1 - i] = '#';
    }
  }
  return out;
}

}  // namespace pqs
