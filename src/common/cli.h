// Minimal command-line flag parsing for bench and example binaries.
//
// Supports `--name value`, `--name=value`, and boolean `--flag`. Unknown flags
// are an error so typos in experiment scripts fail loudly.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pqs {

/// Parsed command line. Construct from (argc, argv), then query typed flags.
class Cli {
 public:
  Cli(int argc, const char* const* argv);

  /// Typed accessors with defaults. Declaring registers the flag for --help.
  /// get_int and get_double throw CheckFailure unless the whole value
  /// parses ("8x" and, for an integer, "1e1" are rejected).
  std::string get_string(const std::string& name, const std::string& def,
                         const std::string& help);
  std::int64_t get_int(const std::string& name, std::int64_t def,
                       const std::string& help);
  double get_double(const std::string& name, double def,
                    const std::string& help);
  bool get_bool(const std::string& name, bool def, const std::string& help);

  /// True when --help was passed; callers should print help() and exit 0.
  bool help_requested() const { return help_requested_; }
  /// Rendered help text from all declared flags.
  std::string help() const;

  /// After all flags are declared, verify no unknown flags were supplied.
  /// Throws CheckFailure listing the offenders.
  void finish() const;

  const std::string& program() const { return program_; }

 private:
  struct FlagDoc {
    std::string name;
    std::string help;
    std::string default_value;
  };

  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<FlagDoc> docs_;
  bool help_requested_ = false;
};

}  // namespace pqs
