#include "api/registry.h"

#include <sstream>

#include "api/algorithms/adapters.h"
#include "common/check.h"

namespace pqs {

void Registry::register_algorithm(const std::string& name,
                                  AlgorithmFactory factory) {
  PQS_CHECK_MSG(!name.empty(), "algorithm name is empty");
  PQS_CHECK_MSG(name != "auto",
                "\"auto\" is reserved for the Engine's algorithm planner");
  PQS_CHECK_MSG(factory != nullptr, "algorithm factory is null");
  auto algorithm = factory();
  PQS_CHECK_MSG(algorithm != nullptr, "algorithm factory returned null");
  PQS_CHECK_MSG(algorithm->name() == name,
                "algorithm self-reports a different name than it is "
                "registered under");
  const auto [it, inserted] = algorithms_.emplace(name, std::move(algorithm));
  (void)it;
  PQS_CHECK_MSG(inserted, "algorithm \"" + name + "\" already registered");
}

const Algorithm& Registry::find(std::string_view name) const {
  const auto it = algorithms_.find(name);
  if (it == algorithms_.end()) {
    std::ostringstream os;
    os << "unknown algorithm \"" << name << "\"; registered:";
    for (const auto& entry : algorithms_) {
      os << ' ' << entry.first;
    }
    throw CheckFailure(os.str());
  }
  return *it->second;
}

std::vector<std::string> Registry::names() const {
  std::vector<std::string> out;
  out.reserve(algorithms_.size());
  for (const auto& entry : algorithms_) {
    out.push_back(entry.first);
  }
  return out;  // std::map iterates sorted
}

Registry Registry::with_builtin_algorithms() {
  Registry registry;
  api::register_grover(registry);
  api::register_exact(registry);
  api::register_bbht(registry);
  api::register_ampamp(registry);
  api::register_grk(registry);
  api::register_multi(registry);
  api::register_certainty(registry);
  api::register_interleave(registry);
  api::register_twelve(registry);
  api::register_noisy(registry);
  api::register_reduction(registry);
  api::register_zalka(registry);
  api::register_classical(registry);
  return registry;
}

}  // namespace pqs
