#include "common/cli.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>

#include "common/check.h"

namespace pqs {

Cli::Cli(int argc, const char* const* argv) {
  PQS_CHECK(argc >= 1);
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    PQS_CHECK_MSG(arg.rfind("--", 0) == 0,
                  "positional arguments are not supported: " + arg);
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // bare boolean flag
    }
  }
}

std::string Cli::get_string(const std::string& name, const std::string& def,
                            const std::string& help_text) {
  docs_.push_back({name, help_text, def});
  const auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t def,
                          const std::string& help_text) {
  docs_.push_back({name, help_text, std::to_string(def)});
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return def;
  }
  try {
    std::size_t used = 0;
    const std::int64_t value = std::stoll(it->second, &used);
    if (used == it->second.size()) {
      return value;
    }
  } catch (const std::exception&) {
  }
  throw CheckFailure("flag --" + name + " expects an integer, got '" +
                     it->second + "'");
}

double Cli::get_double(const std::string& name, double def,
                       const std::string& help_text) {
  docs_.push_back({name, help_text, std::to_string(def)});
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return def;
  }
  try {
    std::size_t used = 0;
    const double value = std::stod(it->second, &used);
    if (used == it->second.size()) {
      return value;
    }
  } catch (const std::exception&) {
  }
  throw CheckFailure("flag --" + name + " expects a number, got '" +
                     it->second + "'");
}

bool Cli::get_bool(const std::string& name, bool def,
                   const std::string& help_text) {
  docs_.push_back({name, help_text, def ? "true" : "false"});
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return def;
  }
  if (it->second == "true" || it->second == "1" || it->second == "yes") {
    return true;
  }
  if (it->second == "false" || it->second == "0" || it->second == "no") {
    return false;
  }
  throw CheckFailure("flag --" + name + " expects a boolean, got '" +
                     it->second + "'");
}

std::string Cli::help() const {
  std::ostringstream os;
  os << "usage: " << program_ << " [flags]\n";
  for (const auto& doc : docs_) {
    os << "  --" << doc.name;
    if (!doc.default_value.empty()) {
      os << " (default: " << doc.default_value << ")";
    }
    os << "\n      " << doc.help << "\n";
  }
  return os.str();
}

namespace {

/// Classic dynamic-programming edit distance, for "did you mean" hints.
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) {
    row[j] = j;
  }
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diagonal = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t substitution =
          diagonal + (a[i - 1] == b[j - 1] ? 0 : 1);
      diagonal = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, substitution});
    }
  }
  return row[b.size()];
}

}  // namespace

void Cli::finish() const {
  std::set<std::string> known;
  for (const auto& doc : docs_) {
    known.insert(doc.name);
  }
  std::string unknown;
  for (const auto& [name, value] : values_) {
    if (known.contains(name)) {
      continue;
    }
    unknown += unknown.empty() ? "unknown flag --" : "; unknown flag --";
    unknown += name;
    // Suggest the closest declared flag when it is plausibly a typo.
    std::string best;
    std::size_t best_distance = name.size();
    for (const auto& candidate : known) {
      const std::size_t d = edit_distance(name, candidate);
      if (d < best_distance) {
        best_distance = d;
        best = candidate;
      }
    }
    if (!best.empty() && best_distance <= 2) {
      unknown += " (did you mean --" + best + "?)";
    }
  }
  PQS_CHECK_MSG(unknown.empty(), unknown);
}

}  // namespace pqs
