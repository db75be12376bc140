#include "api/serialize.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <span>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "qsim/noise.h"

namespace pqs::api {

namespace {

/// The fields each record type admits, sorted for binary search.
constexpr std::array<std::string_view, 13> kSpecKeys = {
    "algorithm", "backend", "l1",      "l2",   "marked", "min_success",
    "n_blocks",  "n_items", "noise",   "noise_p", "seed", "shots",
    "threads"};
constexpr std::array<std::string_view, 16> kReportKeys = {
    "algorithm", "backend_used",   "block_answer",      "correct",
    "detail",    "exec_ns",        "l1",                "l2",
    "measured",  "plan_cache_hit", "plan_ns",           "queries",
    "queries_per_trial", "queue_ns", "success_probability", "trials"};
static_assert(std::is_sorted(kSpecKeys.begin(), kSpecKeys.end()));
static_assert(std::is_sorted(kReportKeys.begin(), kReportKeys.end()));

/// Reject keys outside `known`, naming the offender — a misspelled field in
/// a client request must fail loudly, not silently run with defaults.
void check_known_keys(const Json& json, std::span<const std::string_view> known,
                      std::string_view what) {
  for (const auto& [key, value] : json.as_object()) {
    PQS_CHECK_MSG(std::binary_search(known.begin(), known.end(), key),
                  std::string(what) + ": unknown field \"" + key + "\"");
  }
}

}  // namespace

namespace {

/// THE field list of a spec, in sorted key order (the writer relies on it;
/// the tree sorts anyway).
template <class Visitor>
void visit_fields(const SearchSpec& spec, Visitor& visit) {
  PQS_CHECK_MSG(!spec.predicate,
                "a predicate spec cannot be serialized (the predicate is "
                "code); materialize it via resolve_marked() first");
  visit("algorithm", std::string_view(spec.algorithm));
  visit("backend", std::string_view(qsim::to_string(spec.backend)));
  if (spec.l1.has_value()) {
    visit("l1", *spec.l1);
  }
  if (spec.l2.has_value()) {
    visit("l2", *spec.l2);
  }
  visit("marked", spec.marked);
  visit("min_success", spec.min_success);
  visit("n_blocks", spec.n_blocks);
  visit("n_items", spec.n_items);
  visit("noise", std::string_view(qsim::noise_kind_name(spec.noise.kind)));
  visit("noise_p", spec.noise.probability);
  visit("seed", spec.seed);
  visit("shots", spec.shots);
}

/// THE field list of a report, in sorted key order.
template <class Visitor>
void visit_fields(const SearchReport& report, Visitor& visit) {
  visit("algorithm", std::string_view(report.algorithm));
  if (report.backend_used.has_value()) {
    visit("backend_used",
          std::string_view(qsim::to_string(*report.backend_used)));
  }
  visit("block_answer", report.block_answer);
  visit("correct", report.correct);
  visit("detail", std::string_view(report.detail));
  visit("exec_ns", report.exec_ns);
  visit("l1", report.l1);
  visit("l2", report.l2);
  visit("measured", std::uint64_t{report.measured});
  visit("plan_cache_hit", report.plan_cache_hit);
  visit("plan_ns", report.plan_ns);
  visit("queries", report.queries);
  visit("queries_per_trial", report.queries_per_trial);
  visit("queue_ns", report.queue_ns);
  visit("success_probability", report.success_probability);
  visit("trials", report.trials);
}

/// Builds the Json tree of the visited fields.
struct TreeBuilder {
  Json json = Json::make_object();

  void operator()(std::string_view key, Json value) {
    json.as_object().emplace(std::string(key), std::move(value));
  }
  void operator()(std::string_view key, std::string_view value) {
    (*this)(key, Json(std::string(value)));
  }
  void operator()(std::string_view key, const std::vector<qsim::Index>& v) {
    Json array = Json::make_array();
    for (const qsim::Index m : v) {
      array.push_back(std::uint64_t{m});
    }
    (*this)(key, std::move(array));
  }
};

/// Appends the visited fields as one canonical JSON object (keys are
/// emitted verbatim: the field lists above need no escaping).
struct Writer {
  std::string& out;
  char separator = '{';

  void key(std::string_view key) {
    out += separator;
    separator = ',';
    out += '"';
    out += key;
    out += "\":";
  }
  void operator()(std::string_view k, std::string_view value) {
    key(k);
    Json::dump_string(value, out);
  }
  void operator()(std::string_view k, const std::vector<qsim::Index>& v) {
    key(k);
    out += '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i != 0) {
        out += ',';
      }
      Json::dump_uint(v[i], out);
    }
    out += ']';
  }
  void operator()(std::string_view k, std::uint64_t value) {
    key(k);
    Json::dump_uint(value, out);
  }
  void operator()(std::string_view k, double value) {
    key(k);
    Json::dump_double(value, out);
  }
  void operator()(std::string_view k, bool value) {
    key(k);
    out += value ? "true" : "false";
  }
  void close() { out += '}'; }
};

}  // namespace

Json to_json(const SearchSpec& spec) {
  TreeBuilder tree;
  visit_fields(spec, tree);
  return std::move(tree.json);
}

void write_json(const SearchSpec& spec, std::string& out) {
  Writer writer{out};
  visit_fields(spec, writer);
  writer.close();
}

SearchSpec spec_from_json(const Json& json) {
  check_known_keys(json, kSpecKeys, "SearchSpec");
  SearchSpec spec;
  if (json.has("algorithm")) spec.algorithm = json.at("algorithm").as_string();
  if (json.has("n_items")) spec.n_items = json.at("n_items").as_uint();
  if (json.has("n_blocks")) spec.n_blocks = json.at("n_blocks").as_uint();
  if (json.has("marked")) {
    spec.marked.clear();
    for (const auto& m : json.at("marked").as_array()) {
      spec.marked.push_back(m.as_uint());
    }
  }
  if (json.has("backend")) {
    spec.backend = qsim::parse_backend_kind(json.at("backend").as_string());
  }
  // Checked, then ignored: older journals carry "threads":0 in each spec.
  if (json.has("threads")) {
    static_cast<void>(json.at("threads").as_uint());
  }
  if (json.has("noise")) {
    spec.noise.kind = qsim::parse_noise_kind(json.at("noise").as_string());
  }
  if (json.has("noise_p")) {
    spec.noise.probability = json.at("noise_p").as_double();
  }
  if (json.has("seed")) spec.seed = json.at("seed").as_uint();
  if (json.has("min_success")) {
    spec.min_success = json.at("min_success").as_double();
  }
  if (json.has("l1")) spec.l1 = json.at("l1").as_uint();
  if (json.has("l2")) spec.l2 = json.at("l2").as_uint();
  if (json.has("shots")) spec.shots = json.at("shots").as_uint();
  return spec;
}

int priority_from_json(const Json& value) {
  constexpr double kMin = std::numeric_limits<int>::min();
  constexpr double kMax = std::numeric_limits<int>::max();
  const double priority = value.as_double();
  // The bounds are the halves std::llround would carry out of int range;
  // NaN fails both comparisons.
  PQS_CHECK_MSG(priority > kMin - 0.5 && priority < kMax + 0.5,
                "\"priority\" " + value.dump() + " is outside [" +
                    std::to_string(std::numeric_limits<int>::min()) + ", " +
                    std::to_string(std::numeric_limits<int>::max()) + "]");
  return static_cast<int>(std::llround(priority));
}

Json to_json(const SearchReport& report) {
  TreeBuilder tree;
  visit_fields(report, tree);
  return std::move(tree.json);
}

void write_json(const SearchReport& report, std::string& out) {
  Writer writer{out};
  visit_fields(report, writer);
  writer.close();
}

SearchReport report_from_json(const Json& json) {
  check_known_keys(json, kReportKeys, "SearchReport");
  SearchReport report;
  if (json.has("algorithm")) report.algorithm = json.at("algorithm").as_string();
  if (json.has("measured")) report.measured = json.at("measured").as_uint();
  if (json.has("block_answer")) {
    report.block_answer = json.at("block_answer").as_bool();
  }
  if (json.has("correct")) report.correct = json.at("correct").as_bool();
  if (json.has("queries")) report.queries = json.at("queries").as_uint();
  if (json.has("queries_per_trial")) {
    report.queries_per_trial = json.at("queries_per_trial").as_uint();
  }
  if (json.has("trials")) report.trials = json.at("trials").as_uint();
  if (json.has("success_probability")) {
    report.success_probability = json.at("success_probability").as_double();
  }
  if (json.has("l1")) report.l1 = json.at("l1").as_uint();
  if (json.has("l2")) report.l2 = json.at("l2").as_uint();
  if (json.has("backend_used")) {
    report.backend_used =
        qsim::parse_backend_kind(json.at("backend_used").as_string());
  }
  if (json.has("plan_cache_hit")) {
    report.plan_cache_hit = json.at("plan_cache_hit").as_bool();
  }
  if (json.has("queue_ns")) report.queue_ns = json.at("queue_ns").as_uint();
  if (json.has("plan_ns")) report.plan_ns = json.at("plan_ns").as_uint();
  if (json.has("exec_ns")) report.exec_ns = json.at("exec_ns").as_uint();
  if (json.has("detail")) report.detail = json.at("detail").as_string();
  return report;
}

namespace {

/// The 128-bit coalescing digest of `bytes` as 32 hex digits: FNV-1a from
/// two bases, the two independent halves, run in one pass.
std::string digest_hex(std::string_view bytes) {
  std::uint64_t halves[2] = {0xcbf29ce484222325ULL, 0x9e3779b97f4a7c15ULL};
  for (const char c : bytes) {
    for (std::uint64_t& hash : halves) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 0x100000001b3ULL;
    }
  }
  std::string hex(32, '0');
  for (std::size_t i = 0; i < 32; ++i) {
    const std::uint64_t half = halves[i / 16];
    hex[i] = "0123456789abcdef"[(half >> (60 - 4 * (i % 16))) & 0xF];
  }
  return hex;
}

}  // namespace

CanonicalSpec canonicalize(const SearchSpec& spec) {
  spec.validate_knobs();
  CanonicalSpec canonical{spec, {}, {}};
  canonical.spec.marked = spec.resolve_marked();  // the one predicate scan
  canonical.spec.predicate = nullptr;
  write_json(canonical.spec, canonical.json);
  // Digest rather than the dump itself: a materialized marked set can be
  // huge, and the key is stored per job / per cache entry and compared on
  // every submit. 128 bits keeps accidental collisions out of reach.
  canonical.key = digest_hex(canonical.json);
  return canonical;
}

}  // namespace pqs::api
