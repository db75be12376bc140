// The wire format of the search service: SearchSpec and SearchReport as
// JSON, both directions, every field.
//
// Two consumers:
//   * pqs_serve — the JSONL process front-end: requests arrive as one spec
//     object per line, results leave as one report object per line, so any
//     RPC framework (or a shell pipe) can front a fleet deployment;
//   * request coalescing — canonicalize() reduces a spec to the canonical
//     dump of its result-relevant fields, so concurrent jobs that would
//     compute the same answer attach to one execution (pqs::Service).
//
// Round-trip contract (pinned by tests/test_serialize.cpp): for every spec
// s without a predicate, spec_from_json(to_json(s)) compares equal field by
// field, and likewise for reports. Predicate specs cannot cross the wire —
// serialize the materialized marked set instead (SearchSpec::resolve_marked).
// Unknown object keys are rejected BY NAME, so a typo in a client request
// fails loudly instead of silently running with defaults.
#pragma once

#include <string>

#include "api/search_spec.h"
#include "common/json.h"

namespace pqs::api {

/// Spec -> JSON object. Throws CheckFailure for predicate specs (the
/// predicate is code; materialize it into `marked` first).
Json to_json(const SearchSpec& spec);

/// JSON object -> spec. Missing keys take SearchSpec's defaults; unknown
/// keys throw, naming the key.
SearchSpec spec_from_json(const Json& json);

/// Report -> JSON object (every field, including the timing split).
Json to_json(const SearchReport& report);

/// JSON object -> report. Unknown keys throw, naming the key.
SearchReport report_from_json(const Json& json);

/// A spec in canonical form and its coalescing identity.
struct CanonicalSpec {
  SearchSpec spec;  ///< marked materialized sorted-unique, predicate cleared
  /// 128-bit digest (32 hex chars) of the canonical dump of every field
  /// that determines the result — which excludes batch threads (shot
  /// streams derive from (seed, shot), so any thread count yields identical
  /// reports). Two specs with equal keys produce byte-identical
  /// SearchReports (modulo timing), which is what lets the Service hand one
  /// execution's report to every attached caller.
  std::string key;
};

/// The one admission check of a spec: validate_knobs, then resolve_marked
/// (the single predicate scan), then the digest. Service::submit and
/// pqs_router both call it, so a bad spec fails with the same message on
/// every path. Throws CheckFailure.
CanonicalSpec canonicalize(const SearchSpec& spec);

}  // namespace pqs::api
