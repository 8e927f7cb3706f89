#include "telemetry/json.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/error.hpp"

namespace dynmo::telemetry {

std::string format_double(double v) {
  if (!std::isfinite(v)) {
    // JSON has no inf/nan; the trace never produces them, but a defensive
    // writer must not emit unparseable text.
    return std::signbit(v) ? "-1e308" : (std::isnan(v) ? "0" : "1e308");
  }
  char buf[32];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw Error("json parse error at byte " + std::to_string(pos_) + ": " +
                what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (++depth_ > kMaxJsonDepth) fail("nesting too deep");
        JsonValue v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': return parse_string();
      case 't':
      case 'f':
      case 'n': return parse_literal();
      default: return parse_number();
    }
  }

  JsonValue parse_literal() {
    JsonValue v;
    if (consume_literal("true")) {
      v.kind = JsonValue::Kind::Bool;
      v.boolean = true;
    } else if (consume_literal("false")) {
      v.kind = JsonValue::Kind::Bool;
      v.boolean = false;
    } else if (consume_literal("null")) {
      v.kind = JsonValue::Kind::Null;
    } else {
      fail("invalid literal");
    }
    return v;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
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
    if (pos_ == start) fail("invalid number");
    const std::string token(text_.substr(start, pos_ - start));
    JsonValue v;
    v.kind = JsonValue::Kind::Number;
    char* end = nullptr;
    v.number = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("invalid number");
    if (integral) {
      errno = 0;
      const long long i = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        v.integer = i;
        v.is_integer = true;
      }
    }
    return v;
  }

  JsonValue parse_string() {
    JsonValue v;
    v.kind = JsonValue::Kind::String;
    v.string = parse_raw_string();
    return v;
  }

  std::string parse_raw_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("invalid \\u escape");
            }
          }
          // The writer only escapes control characters, so a BMP->UTF-8
          // encode covers everything the codec itself produces.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("invalid escape");
      }
    }
    return out;
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::Array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']' in array");
    }
    return v;
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::Object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_raw_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}' in object");
    }
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< open arrays/objects (a throw abandons the parser)
};

}  // namespace

JsonValue JsonValue::parse(std::string_view text) {
  return Parser(text).parse_document();
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

const char* JsonValue::kind_name() const {
  switch (kind) {
    case Kind::Null: return "null";
    case Kind::Bool: return "bool";
    case Kind::Number: return "number";
    case Kind::String: return "string";
    case Kind::Array: return "array";
    case Kind::Object: return "object";
  }
  return "?";
}

bool JsonValue::as_bool() const {
  DYNMO_CHECK(kind == Kind::Bool, "expected bool, got " << kind_name());
  return boolean;
}

double JsonValue::as_double() const {
  DYNMO_CHECK(kind == Kind::Number, "expected number, got " << kind_name());
  return number;
}

std::int64_t JsonValue::as_int() const {
  DYNMO_CHECK(kind == Kind::Number && is_integer,
              "expected integer, got " << kind_name());
  return integer;
}

const std::string& JsonValue::as_string() const {
  DYNMO_CHECK(kind == Kind::String, "expected string, got " << kind_name());
  return string;
}

}  // namespace dynmo::telemetry
