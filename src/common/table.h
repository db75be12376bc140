// ASCII table rendering for the experiment binaries.
//
// Every bench prints rows in the same layout as the paper's table so that
// paper-vs-measured comparisons in EXPERIMENTS.md are a straight read-off.
#pragma once

#include <string>
#include <vector>

namespace pqs {

/// Column-aligned ASCII table with a header row and optional title.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void set_title(std::string title) { title_ = std::move(title); }

  /// Append a row; must have exactly as many cells as the header.
  void add_row(std::vector<std::string> row);

  /// Convenience: format a double with fixed precision.
  static std::string num(double v, int precision = 3);
  /// Convenience: format an integer.
  static std::string num(std::uint64_t v);

  std::string render() const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace pqs
