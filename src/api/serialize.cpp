#include "api/serialize.h"

#include <cstdio>
#include <set>
#include <string_view>

#include "common/check.h"
#include "qsim/noise.h"

namespace pqs::api {

namespace {

/// Reject keys outside `known`, naming the offender — a misspelled field in
/// a client request must fail loudly, not silently run with defaults.
void check_known_keys(const Json& json, const std::set<std::string_view>& known,
                      std::string_view what) {
  for (const auto& [key, value] : json.as_object()) {
    PQS_CHECK_MSG(known.contains(key),
                  std::string(what) + ": unknown field \"" + key + "\"");
  }
}

}  // namespace

Json to_json(const SearchSpec& spec) {
  PQS_CHECK_MSG(!spec.predicate,
                "a predicate spec cannot be serialized (the predicate is "
                "code); materialize it via resolve_marked() first");
  Json json = Json::make_object();
  json["algorithm"] = spec.algorithm;
  json["n_items"] = spec.n_items;
  json["n_blocks"] = spec.n_blocks;
  Json marked = Json::make_array();
  for (const auto m : spec.marked) {
    marked.push_back(std::uint64_t{m});
  }
  json["marked"] = std::move(marked);
  json["backend"] = qsim::to_string(spec.backend);
  json["threads"] = std::uint64_t{spec.batch.threads};
  json["noise"] = std::string(qsim::noise_kind_name(spec.noise.kind));
  json["noise_p"] = spec.noise.probability;
  json["seed"] = spec.seed;
  json["min_success"] = spec.min_success;
  if (spec.l1.has_value()) {
    json["l1"] = *spec.l1;
  }
  if (spec.l2.has_value()) {
    json["l2"] = *spec.l2;
  }
  json["shots"] = spec.shots;
  return json;
}

SearchSpec spec_from_json(const Json& json) {
  check_known_keys(json,
                   {"algorithm", "n_items", "n_blocks", "marked", "backend",
                    "threads", "noise", "noise_p", "seed", "min_success",
                    "l1", "l2", "shots"},
                   "SearchSpec");
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
  if (json.has("threads")) {
    spec.batch.threads = static_cast<unsigned>(json.at("threads").as_uint());
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

Json to_json(const SearchReport& report) {
  Json json = Json::make_object();
  json["algorithm"] = report.algorithm;
  json["measured"] = std::uint64_t{report.measured};
  json["block_answer"] = report.block_answer;
  json["correct"] = report.correct;
  json["queries"] = report.queries;
  json["queries_per_trial"] = report.queries_per_trial;
  json["trials"] = report.trials;
  json["success_probability"] = report.success_probability;
  json["l1"] = report.l1;
  json["l2"] = report.l2;
  json["backend_used"] = qsim::to_string(report.backend_used);
  json["plan_cache_hit"] = report.plan_cache_hit;
  json["queue_ns"] = report.queue_ns;
  json["plan_ns"] = report.plan_ns;
  json["exec_ns"] = report.exec_ns;
  json["detail"] = report.detail;
  return json;
}

SearchReport report_from_json(const Json& json) {
  check_known_keys(json,
                   {"algorithm", "measured", "block_answer", "correct",
                    "queries", "queries_per_trial", "trials",
                    "success_probability", "l1", "l2", "backend_used",
                    "plan_cache_hit", "queue_ns", "plan_ns", "exec_ns",
                    "detail"},
                   "SearchReport");
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

/// FNV-1a over `bytes` from a caller-chosen basis (two bases give the two
/// independent halves of the 128-bit digest below).
std::uint64_t fnv1a(std::string_view bytes, std::uint64_t basis) {
  std::uint64_t hash = basis;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace

CanonicalSpec canonicalize(const SearchSpec& spec) {
  spec.validate_knobs();
  CanonicalSpec canonical{spec, {}};
  canonical.spec.marked = spec.resolve_marked();  // the one predicate scan
  canonical.spec.predicate = nullptr;
  Json json = to_json(canonical.spec);
  // Thread fan-out does not change the answer: per-shot RNG streams derive
  // from (seed, shot index) alone, so any thread count yields the identical
  // report and specs differing only there should coalesce.
  json.as_object().erase("threads");
  const std::string dump = json.dump();
  // Digest rather than the dump itself: a materialized marked set can be
  // huge, and the key is stored per job / per cache entry and compared on
  // every submit. 128 bits keeps accidental collisions out of reach.
  char digest[34];
  std::snprintf(digest, sizeof(digest), "%016llx%016llx",
                static_cast<unsigned long long>(
                    fnv1a(dump, 0xcbf29ce484222325ULL)),
                static_cast<unsigned long long>(
                    fnv1a(dump, 0x9e3779b97f4a7c15ULL)));
  canonical.key.assign(digest, 32);
  return canonical;
}

}  // namespace pqs::api
