// A minimal JSON value: parse, build, and canonical serialization.
//
// The wire layer (api/serialize.h, pqs_serve's JSONL protocol) needs JSON
// without external dependencies, and it needs two properties the usual
// tricks with printf don't give:
//   * exact 64-bit integers — SearchSpec carries n_items up to 2^62 and
//     arbitrary uint64 seeds, which a double-only JSON number mangles;
//     integers therefore parse and print through uint64 exactly;
//   * canonical output — object keys sort, no whitespace, doubles render
//     via the shortest round-trip form (std::to_chars) — so the dump of a
//     value is a deterministic function of the value. Request coalescing
//     keys on that string, and CI diffs serve transcripts byte-for-byte.
//
// The grammar is standard JSON; numbers with a sign, fraction, or exponent
// become doubles, bare non-negative integer literals become uint64.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace pqs {

class Json {
 public:
  enum class Kind { kNull, kBool, kUInt, kDouble, kString, kArray, kObject };

  using Array = std::vector<Json>;
  /// std::map: iteration (and therefore dump()) is key-sorted — canonical.
  using Object = std::map<std::string, Json>;

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(std::uint64_t u) : value_(u) {}
  Json(int u);  // convenience for literals; must be non-negative
  Json(unsigned u) : value_(std::uint64_t{u}) {}
  Json(double d) : value_(d) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(Array a) : value_(std::move(a)) {}
  Json(Object o) : value_(std::move(o)) {}

  static Json make_array() { return Json(Array{}); }
  static Json make_object() { return Json(Object{}); }

  Kind kind() const { return static_cast<Kind>(value_.index()); }
  bool is_null() const { return kind() == Kind::kNull; }
  bool is_bool() const { return kind() == Kind::kBool; }
  bool is_uint() const { return kind() == Kind::kUInt; }
  bool is_double() const { return kind() == Kind::kDouble; }
  bool is_number() const { return is_uint() || is_double(); }
  bool is_string() const { return kind() == Kind::kString; }
  bool is_array() const { return kind() == Kind::kArray; }
  bool is_object() const { return kind() == Kind::kObject; }

  /// Checked accessors; a kind mismatch throws CheckFailure naming the
  /// expected and actual kinds.
  bool as_bool() const;
  std::uint64_t as_uint() const;
  /// Any number (a uint converts exactly when it fits a double's mantissa;
  /// beyond 2^53 callers should use as_uint).
  double as_double() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  Array& as_array();
  const Object& as_object() const;
  Object& as_object();

  // -- object helpers --
  bool has(std::string_view key) const;
  /// Member lookup; a missing key throws CheckFailure naming the key.
  const Json& at(std::string_view key) const;
  /// Insert-or-access for building objects (value starts null).
  Json& operator[](const std::string& key);

  // -- array helper --
  void push_back(Json v);

  friend bool operator==(const Json& a, const Json& b) {
    return a.value_ == b.value_;
  }

  /// Canonical one-line serialization (sorted keys, no whitespace,
  /// shortest-round-trip doubles). Throws on non-finite doubles.
  std::string dump() const;

  /// The scalar encoders dump() is made of, for writers that append
  /// canonical JSON straight to a string without building a tree
  /// (api/serialize.h, the journal, net/session): a writer that emits its
  /// keys in sorted order through these gets dump()'s exact bytes.
  static void dump_string(std::string_view s, std::string& out);
  /// Throws CheckFailure on a non-finite double.
  static void dump_double(double d, std::string& out);
  static void dump_uint(std::uint64_t u, std::string& out);

  /// Parse one JSON document (the whole string must be consumed). Throws
  /// CheckFailure with the byte offset on malformed input.
  static Json parse(std::string_view text);

 private:
  std::variant<std::nullptr_t, bool, std::uint64_t, double, std::string,
               Array, Object>
      value_;
};

}  // namespace pqs
