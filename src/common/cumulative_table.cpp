#include "common/cumulative_table.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace pqs {

CumulativeTable::CumulativeTable(std::span<const double> weights) {
  PQS_CHECK_MSG(!weights.empty(), "cumulative table: no weights");
  sums_.reserve(weights.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    PQS_CHECK_MSG(weights[i] >= 0.0, "cumulative table: negative weight");
    if (weights[i] > 0.0) {
      last_positive_ = i;
    }
    sum += weights[i];
    sums_.push_back(sum);
  }
  PQS_CHECK_MSG(sum > 0.0, "cumulative table: all weights zero");
  PQS_CHECK_MSG(std::isfinite(sum), "cumulative table: infinite total");
}

CumulativeTable::Hit CumulativeTable::locate(double u) const {
  const double x = u * total();
  // The first running sum strictly above x: its bin has positive weight,
  // because an empty bin repeats the sum before it.
  const auto it = std::upper_bound(sums_.begin(), sums_.end(), x);
  const std::size_t i = it == sums_.end()
                            ? last_positive_
                            : static_cast<std::size_t>(it - sums_.begin());
  return Hit{i, x - (i == 0 ? 0.0 : sums_[i - 1])};
}

}  // namespace pqs
