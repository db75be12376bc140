#include "common/table.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"

namespace pqs {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  PQS_CHECK(!header_.empty());
}

void Table::add_row(std::vector<std::string> row) {
  PQS_CHECK_MSG(row.size() == header_.size(),
                "table row width does not match header");
  rows_.push_back(std::move(row));
}

std::string Table::num(double v, int precision) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << v;
  return os.str();
}

std::string Table::num(std::uint64_t v) { return std::to_string(v); }

std::string Table::render() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  const auto hline = [&] {
    std::string s = "+";
    for (const auto w : widths) {
      s += std::string(w + 2, '-') + "+";
    }
    return s + "\n";
  };
  const auto format_row = [&](const std::vector<std::string>& row) {
    std::string s = "|";
    for (std::size_t c = 0; c < row.size(); ++c) {
      s += ' ' + row[c] + std::string(widths[c] - row[c].size(), ' ') + " |";
    }
    return s + "\n";
  };

  std::ostringstream os;
  if (!title_.empty()) {
    os << title_ << '\n';
  }
  os << hline() << format_row(header_) << hline();
  for (const auto& row : rows_) {
    os << format_row(row);
  }
  os << hline();
  return os.str();
}

}  // namespace pqs
