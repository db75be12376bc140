// Fuzz target: the api serialization edge (api/serialize.h).
//
// Every byte that reaches spec_from_json / report_from_json came off a
// socket, a journal, or a replay file — hostile by definition. The target
// enforces the layer's two contracts on arbitrary input:
//   1. the ONLY failure mode is a thrown CheckFailure (no other exception
//      type, no crash, no sanitizer finding);
//   2. canonical round-trip: a value that parses serializes back to bytes
//      that re-parse to the same canonical dump (what coalescing keys and
//      journal replay both rely on).
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "api/serialize.h"
#include "common/check.h"
#include "common/json.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  std::optional<pqs::Json> value;
  try {
    value = pqs::Json::parse(text);
  } catch (const pqs::CheckFailure&) {
    return 0;  // malformed JSON: the sanctioned rejection
  }

  std::optional<pqs::SearchSpec> spec;
  try {
    spec = pqs::api::spec_from_json(*value);
  } catch (const pqs::CheckFailure&) {
  }
  if (spec) {
    // The spec check (api::canonicalize) is fuzzed by fuzz_wire_line on
    // the submit path; this target pins the round trip.
    std::string first;
    try {
      first = pqs::api::to_json(*spec).dump();
    } catch (const pqs::CheckFailure&) {
      first.clear();  // non-finite double (e.g. noise_p:1e999): dump refuses
    }
    if (!first.empty()) {
      const pqs::SearchSpec again =
          pqs::api::spec_from_json(pqs::Json::parse(first));
      if (pqs::api::to_json(again).dump() != first) {
        __builtin_trap();  // round-trip broke: a real serialization bug
      }
    }
  }

  try {
    const pqs::SearchReport report = pqs::api::report_from_json(*value);
    std::string first;
    try {
      first = pqs::api::to_json(report).dump();
    } catch (const pqs::CheckFailure&) {
      first.clear();
    }
    if (!first.empty()) {
      const pqs::SearchReport again =
          pqs::api::report_from_json(pqs::Json::parse(first));
      if (pqs::api::to_json(again).dump() != first) {
        __builtin_trap();
      }
    }
  } catch (const pqs::CheckFailure&) {
  }
  return 0;
}

#ifdef PQS_FUZZ_STANDALONE
#include "standalone_main.inc"
#endif
