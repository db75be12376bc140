#include "common/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/check.h"

namespace pqs {

namespace {

std::string_view kind_name(Json::Kind kind) {
  switch (kind) {
    case Json::Kind::kNull: return "null";
    case Json::Kind::kBool: return "bool";
    case Json::Kind::kUInt: return "integer";
    case Json::Kind::kDouble: return "double";
    case Json::Kind::kString: return "string";
    case Json::Kind::kArray: return "array";
    case Json::Kind::kObject: return "object";
  }
  return "?";
}

[[noreturn]] void kind_error(Json::Kind want, Json::Kind got) {
  throw CheckFailure(std::string("JSON: expected ") +
                     std::string(kind_name(want)) + ", got " +
                     std::string(kind_name(got)));
}

/// Recursive-descent JSON parser over a string_view.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_ws();
    check(pos_ == text_.size(), "trailing characters after JSON value");
    return value;
  }

 private:
  void check(bool ok, const std::string& what) const {
    if (!ok) {
      throw CheckFailure("JSON parse error at byte " + std::to_string(pos_) +
                         ": " + what);
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    check(pos_ < text_.size(), "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    check(pos_ < text_.size() && text_[pos_] == c,
          std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Json parse_value() {
    // parse_object/parse_array recurse through here; without a cap, one
    // deeply nested line blows the stack and kills the whole process (a
    // server must answer malformed input with an error, not a segfault).
    check(depth_ < kMaxDepth, "nesting deeper than 64 levels");
    ++depth_;
    skip_ws();
    const char c = peek();
    Json value;
    if (c == '{') {
      value = parse_object();
    } else if (c == '[') {
      value = parse_array();
    } else if (c == '"') {
      value = Json(parse_string());
    } else if (consume_literal("true")) {
      value = Json(true);
    } else if (consume_literal("false")) {
      value = Json(false);
    } else if (consume_literal("null")) {
      value = Json(nullptr);
    } else {
      value = parse_number();
    }
    --depth_;
    return value;
  }

  Json parse_object() {
    expect('{');
    Json::Object object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(object));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      check(!object.contains(key), "duplicate key \"" + key + "\"");
      skip_ws();
      expect(':');
      object.emplace(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Json(std::move(object));
    }
  }

  Json parse_array() {
    expect('[');
    Json::Array array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(array));
    }
    while (true) {
      array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Json(std::move(array));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      check(pos_ < text_.size(), "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      check(pos_ < text_.size(), "unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          check(pos_ + 4 <= text_.size(), "truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else check(false, "bad \\u escape digit");
          }
          // Basic-plane code point to UTF-8. Surrogates are rejected, not
          // transcoded: encoding them blindly would emit CESU-8 bytes that
          // downstream strict-UTF-8 JSON parsers refuse.
          check(code < 0xD800 || code > 0xDFFF,
                "surrogate \\u escapes are not supported");
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          check(false, std::string("bad escape '\\") + e + "'");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') {
      ++pos_;
    }
    bool integral = text_[start] != '-';
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string_view lit = text_.substr(start, pos_ - start);
    check(!lit.empty() && lit != "-", "expected a number");
    if (integral) {
      std::uint64_t u = 0;
      const auto [ptr, ec] =
          std::from_chars(lit.data(), lit.data() + lit.size(), u);
      if (ec == std::errc() && ptr == lit.data() + lit.size()) {
        return Json(u);
      }
    }
    double d = 0.0;
    const auto [ptr, ec] =
        std::from_chars(lit.data(), lit.data() + lit.size(), d);
    check(ec == std::errc() && ptr == lit.data() + lit.size(),
          "malformed number \"" + std::string(lit) + "\"");
    return Json(d);
  }

  static constexpr std::size_t kMaxDepth = 64;

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

void dump_value(const Json& v, std::string& out);

void dump_value(const Json& v, std::string& out) {
  switch (v.kind()) {
    case Json::Kind::kNull:
      out += "null";
      break;
    case Json::Kind::kBool:
      out += v.as_bool() ? "true" : "false";
      break;
    case Json::Kind::kUInt:
      Json::dump_uint(v.as_uint(), out);
      break;
    case Json::Kind::kDouble:
      Json::dump_double(v.as_double(), out);
      break;
    case Json::Kind::kString:
      Json::dump_string(v.as_string(), out);
      break;
    case Json::Kind::kArray: {
      out += '[';
      bool first = true;
      for (const auto& item : v.as_array()) {
        if (!first) out += ',';
        first = false;
        dump_value(item, out);
      }
      out += ']';
      break;
    }
    case Json::Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, value] : v.as_object()) {
        if (!first) out += ',';
        first = false;
        Json::dump_string(key, out);
        out += ':';
        dump_value(value, out);
      }
      out += '}';
      break;
    }
  }
}

}  // namespace

Json::Json(int u) : value_(std::uint64_t{0}) {
  PQS_CHECK_MSG(u >= 0, "negative integers are not part of the wire schema");
  value_ = static_cast<std::uint64_t>(u);
}

bool Json::as_bool() const {
  if (!is_bool()) kind_error(Kind::kBool, kind());
  return std::get<bool>(value_);
}

std::uint64_t Json::as_uint() const {
  if (!is_uint()) kind_error(Kind::kUInt, kind());
  return std::get<std::uint64_t>(value_);
}

double Json::as_double() const {
  if (is_uint()) {
    return static_cast<double>(std::get<std::uint64_t>(value_));
  }
  if (!is_double()) kind_error(Kind::kDouble, kind());
  return std::get<double>(value_);
}

const std::string& Json::as_string() const {
  if (!is_string()) kind_error(Kind::kString, kind());
  return std::get<std::string>(value_);
}

const Json::Array& Json::as_array() const {
  if (!is_array()) kind_error(Kind::kArray, kind());
  return std::get<Array>(value_);
}

Json::Array& Json::as_array() {
  if (!is_array()) kind_error(Kind::kArray, kind());
  return std::get<Array>(value_);
}

const Json::Object& Json::as_object() const {
  if (!is_object()) kind_error(Kind::kObject, kind());
  return std::get<Object>(value_);
}

Json::Object& Json::as_object() {
  if (!is_object()) kind_error(Kind::kObject, kind());
  return std::get<Object>(value_);
}

bool Json::has(std::string_view key) const {
  const auto& object = as_object();
  return object.find(std::string(key)) != object.end();
}

const Json& Json::at(std::string_view key) const {
  const auto& object = as_object();
  const auto it = object.find(std::string(key));
  PQS_CHECK_MSG(it != object.end(),
                "JSON object has no key \"" + std::string(key) + "\"");
  return it->second;
}

Json& Json::operator[](const std::string& key) {
  if (is_null()) {
    value_ = Object{};
  }
  return as_object()[key];
}

void Json::push_back(Json v) {
  if (is_null()) {
    value_ = Array{};
  }
  as_array().push_back(std::move(v));
}

void Json::dump_string(std::string_view s, std::string& out) {
  out += '"';
  // Runs of bytes that need no escape are appended whole.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const char* escape = nullptr;
    switch (c) {
      case '"': escape = "\\\""; break;
      case '\\': escape = "\\\\"; break;
      case '\b': escape = "\\b"; break;
      case '\f': escape = "\\f"; break;
      case '\n': escape = "\\n"; break;
      case '\r': escape = "\\r"; break;
      case '\t': escape = "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) {
          continue;  // UTF-8 bytes pass through
        }
    }
    out.append(s, run, i - run);
    run = i + 1;
    if (escape != nullptr) {
      out += escape;
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    }
  }
  out.append(s, run);
  out += '"';
}

void Json::dump_double(double d, std::string& out) {
  PQS_CHECK_MSG(std::isfinite(d), "JSON cannot carry a non-finite number");
  char buf[32];
  // Shortest representation that round-trips — the canonical form.
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), d);
  PQS_CHECK(ec == std::errc());
  out.append(buf, ptr);
  // Keep doubles distinguishable from integers on the wire ("1" vs "1.0"):
  // a double that prints as a bare integer gains ".0".
  const std::string_view printed(buf, static_cast<std::size_t>(ptr - buf));
  if (printed.find('.') == std::string_view::npos &&
      printed.find('e') == std::string_view::npos) {
    out += ".0";
  }
}

void Json::dump_uint(std::uint64_t u, std::string& out) {
  char buf[24];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), u);
  out.append(buf, ptr);
}

std::string Json::dump() const {
  std::string out;
  dump_value(*this, out);
  return out;
}

Json Json::parse(std::string_view text) {
  Parser parser(text);
  return parser.parse_document();
}

}  // namespace pqs
