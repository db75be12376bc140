#include "api/search_spec.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"

namespace pqs {

SearchSpec SearchSpec::single_target(std::uint64_t n_items,
                                     std::uint64_t n_blocks,
                                     qsim::Index target) {
  SearchSpec spec;
  spec.n_items = n_items;
  spec.n_blocks = n_blocks;
  spec.marked = {target};
  return spec;
}

qsim::Index SearchSpec::target() const {
  PQS_CHECK_MSG(marked.size() == 1,
                "SearchSpec::target: the spec does not have a unique marked "
                "address");
  return marked.front();
}

std::vector<qsim::Index> SearchSpec::resolve_marked() const {
  PQS_CHECK_MSG(marked.empty() != !predicate,
                "set exactly one of SearchSpec::marked and "
                "SearchSpec::predicate");
  if (!marked.empty()) {
    for (const auto m : marked) {
      PQS_CHECK_MSG(m < n_items, "marked address out of range");
    }
    auto sorted = marked;
    std::sort(sorted.begin(), sorted.end());
    PQS_CHECK_MSG(std::adjacent_find(sorted.begin(), sorted.end()) ==
                      sorted.end(),
                  "marked set has duplicates");
    return sorted;
  }
  PQS_CHECK_MSG(n_items <= kMaxPredicateItems,
                "predicate specs scan the whole address space; N is too "
                "large (pass an explicit marked set instead)");
  std::vector<qsim::Index> out;
  for (qsim::Index x = 0; x < n_items; ++x) {
    if (predicate(x)) {
      out.push_back(x);
    }
  }
  PQS_CHECK_MSG(!out.empty(), "the merit predicate marked no address");
  return out;
}

void SearchSpec::validate_knobs() const {
  PQS_CHECK_MSG(!algorithm.empty(), "algorithm name is empty");
  PQS_CHECK_MSG(n_items >= 2, "need at least two items");
  PQS_CHECK_MSG(n_blocks >= 1 && n_items % n_blocks == 0,
                "n_blocks must divide n_items");
  PQS_CHECK_MSG(shots >= 1, "need at least one shot");
  PQS_CHECK_MSG(min_success <= 1.0, "min_success above 1 is unsatisfiable");
  noise.validate();
}

std::string SearchSpec::describe() const {
  std::ostringstream os;
  os << algorithm << " N=" << n_items << " K=" << n_blocks;
  if (!marked.empty()) {
    os << " M=" << marked.size();
  } else {
    os << " M=predicate";
  }
  os << " backend=" << qsim::to_string(backend) << " seed=" << seed;
  if (l1.has_value() || l2.has_value()) {
    os << " l1=" << (l1 ? std::to_string(*l1) : std::string("auto"))
       << " l2=" << (l2 ? std::to_string(*l2) : std::string("auto"));
  }
  if (min_success > 0.0) {
    os << " min_success=" << min_success;
  }
  if (shots > 1) {
    os << " shots=" << shots;
  }
  if (noise.enabled()) {
    os << " noise=" << qsim::noise_kind_name(noise.kind) << "@"
       << noise.probability;
  }
  return os.str();
}

std::string SearchReport::to_string() const {
  std::ostringstream os;
  os << algorithm << ": measured " << (block_answer ? "block " : "address ")
     << measured << (correct ? " (correct)" : " (WRONG)") << " in "
     << queries << " queries";
  if (trials > 1) {
    os << " (" << trials << " trials x " << queries_per_trial
       << " queries)";
  }
  os << "\n  success " << success_probability;
  if (backend_used.has_value()) {
    os << ", engine " << qsim::to_string(*backend_used);
  }
  if (l1 != 0 || l2 != 0) {
    os << ", schedule l1=" << l1 << " l2=" << l2
       << (plan_cache_hit ? " (cached plan)" : "");
  }
  os << "\n  timing queue " << queue_ns << " ns, plan " << plan_ns
     << " ns, exec " << exec_ns << " ns";
  if (!detail.empty()) {
    os << "\n  " << detail;
  }
  return os.str();
}

}  // namespace pqs
