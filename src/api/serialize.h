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
// Each record type has ONE field list (serialize.cpp's visit_fields), walked
// by two serializers: to_json builds a Json tree, write_json appends the
// same canonical bytes (== to_json(...).dump(), pinned by
// tests/test_serialize.cpp and fuzz/fuzz_from_json.cpp) straight to a
// string. The serve path — journal records, result lines — uses the writer
// and builds no tree.
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
/// keys throw, naming the key. A uint "threads" is admitted and ignored.
SearchSpec spec_from_json(const Json& json);

/// A job priority from its JSON number (a uint, or a double below the
/// default), rounded to nearest with halves away from zero. Throws
/// CheckFailure naming "priority" when the rounded value is not an int.
/// The wire's submit header and the journal's accepted record both use it.
int priority_from_json(const Json& value);

/// Report -> JSON object (every field, including the timing split).
Json to_json(const SearchReport& report);

/// Append to_json(spec).dump() / to_json(report).dump() to `out` without
/// building the tree. Same throws as to_json + dump.
void write_json(const SearchSpec& spec, std::string& out);
void write_json(const SearchReport& report, std::string& out);

/// JSON object -> report. Unknown keys throw, naming the key.
SearchReport report_from_json(const Json& json);

/// A spec in canonical form and its coalescing identity.
struct CanonicalSpec {
  SearchSpec spec;  ///< marked materialized sorted-unique, predicate cleared
  /// 128-bit digest (32 hex chars) of `json`. A spec holds every field that
  /// determines the result and nothing else, so two specs with equal keys
  /// produce byte-identical SearchReports (modulo timing), which is what
  /// lets the Service hand one execution's report to every attached caller.
  std::string key;
  /// The digest input: write_json(spec)'s bytes, which the journal's
  /// `accepted` record embeds as they are.
  std::string json;
};

/// The one admission check of a spec: validate_knobs, then resolve_marked
/// (the single predicate scan), then the digest. Service::submit and
/// pqs_router both call it, so a bad spec fails with the same message on
/// every path. Throws CheckFailure.
CanonicalSpec canonicalize(const SearchSpec& spec);

}  // namespace pqs::api
