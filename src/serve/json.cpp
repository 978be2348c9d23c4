#include "serve/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace pprophet::serve {

bool JsonValue::as_bool() const {
  if (kind_ != Kind::Bool) throw JsonError("json: not a bool");
  return bool_;
}

std::int64_t JsonValue::as_int() const {
  if (kind_ != Kind::Int) throw JsonError("json: not an integer");
  return int_;
}

std::uint64_t JsonValue::as_u64() const {
  const std::int64_t v = as_int();
  if (v < 0) throw JsonError("json: negative where unsigned expected");
  return static_cast<std::uint64_t>(v);
}

double JsonValue::as_double() const {
  if (kind_ == Kind::Int) return static_cast<double>(int_);
  if (kind_ != Kind::Double) throw JsonError("json: not a number");
  return double_;
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::String) throw JsonError("json: not a string");
  return string_;
}

const JsonValue::Array& JsonValue::as_array() const {
  if (kind_ != Kind::Array) throw JsonError("json: not an array");
  return array_;
}

const JsonValue::Object& JsonValue::as_object() const {
  if (kind_ != Kind::Object) throw JsonError("json: not an object");
  return object_;
}

const std::string& JsonValue::raw_text() const {
  if (kind_ != Kind::Raw) throw JsonError("json: not raw json");
  return string_;
}

JsonValue::Array& JsonValue::as_array() {
  if (kind_ != Kind::Array) throw JsonError("json: not an array");
  return array_;
}

JsonValue::Object& JsonValue::as_object() {
  if (kind_ != Kind::Object) throw JsonError("json: not an object");
  return object_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::Object) return nullptr;
  const auto it = object_.find(std::string(key));
  return it == object_.end() ? nullptr : &it->second;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  if (v == nullptr) throw JsonError("json: missing field '" + std::string(key) + "'");
  return *v;
}

JsonValue& JsonValue::set(std::string key, JsonValue v) {
  if (kind_ == Kind::Null) kind_ = Kind::Object;
  if (kind_ != Kind::Object) throw JsonError("json: set() on non-object");
  return object_[std::move(key)] = std::move(v);
}

bool JsonValue::operator==(const JsonValue& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::Null: return true;
    case Kind::Bool: return bool_ == other.bool_;
    case Kind::Int: return int_ == other.int_;
    case Kind::Double: return double_ == other.double_;
    case Kind::String:
    case Kind::Raw: return string_ == other.string_;
    case Kind::Array: return array_ == other.array_;
    case Kind::Object: return object_ == other.object_;
  }
  return false;
}

namespace {

constexpr int kMaxDepth = 96;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw JsonError("json: " + what + " at offset " + std::to_string(pos_));
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

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return JsonValue(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return JsonValue(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return JsonValue(nullptr);
        fail("bad literal");
      default: return parse_number();
    }
  }

  JsonValue parse_object(int depth) {
    expect('{');
    JsonValue::Object obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue(std::move(obj));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[std::move(key)] = parse_value(depth + 1);
      skip_ws();
      const char sep = take();
      if (sep == '}') return JsonValue(std::move(obj));
      if (sep != ',') {
        --pos_;
        fail("expected ',' or '}'");
      }
    }
  }

  JsonValue parse_array(int depth) {
    expect('[');
    JsonValue::Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue(std::move(arr));
    }
    for (;;) {
      arr.push_back(parse_value(depth + 1));
      skip_ws();
      const char sep = take();
      if (sep == ']') return JsonValue(std::move(arr));
      if (sep != ',') {
        --pos_;
        fail("expected ',' or ']'");
      }
    }
  }

  unsigned parse_hex4() {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = take();
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
      else {
        --pos_;
        fail("bad \\u escape");
      }
    }
    return v;
  }

  void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      const char c = take();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = take();
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: require a following \uDC00..\uDFFF low half.
            if (take() != '\\' || take() != 'u') {
              --pos_;
              fail("unpaired surrogate");
            }
            const unsigned lo = parse_hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) fail("unpaired surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          --pos_;
          fail("bad escape");
      }
    }
  }

  // RFC 8259: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  // strtoll/strtod are laxer (leading '+', leading zeros, hex), so the
  // token is validated against the grammar before conversion.
  void check_number_grammar(const std::string& tok) {
    std::size_t i = 0;
    const std::size_t n = tok.size();
    const auto digit = [&](std::size_t k) {
      return k < n && tok[k] >= '0' && tok[k] <= '9';
    };
    if (i < n && tok[i] == '-') ++i;
    if (!digit(i)) fail("bad number");
    if (tok[i] == '0') {
      ++i;
    } else {
      while (digit(i)) ++i;
    }
    if (i < n && tok[i] == '.') {
      ++i;
      if (!digit(i)) fail("bad number");
      while (digit(i)) ++i;
    }
    if (i < n && (tok[i] == 'e' || tok[i] == 'E')) {
      ++i;
      if (i < n && (tok[i] == '+' || tok[i] == '-')) ++i;
      if (!digit(i)) fail("bad number");
      while (digit(i)) ++i;
    }
    if (i != n) fail("bad number");
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    bool integral = true;
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
    const std::string tok(text_.substr(start, pos_ - start));
    if (tok.empty() || tok == "-") fail("bad number");
    check_number_grammar(tok);
    errno = 0;
    char* end = nullptr;
    if (integral) {
      const long long v = std::strtoll(tok.c_str(), &end, 10);
      if (errno == 0 && end == tok.c_str() + tok.size()) {
        return JsonValue(static_cast<std::int64_t>(v));
      }
      // Out of int64 range: fall through to double.
    }
    errno = 0;
    const double d = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size() || !std::isfinite(d)) fail("bad number");
    return JsonValue(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void dump_string(const std::string& s, std::string& out) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void dump_value(const JsonValue& v, std::string& out) {
  switch (v.kind()) {
    case JsonValue::Kind::Null: out += "null"; break;
    case JsonValue::Kind::Bool: out += v.as_bool() ? "true" : "false"; break;
    case JsonValue::Kind::Int: out += std::to_string(v.as_int()); break;
    case JsonValue::Kind::Double: {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", v.as_double());
      out += buf;
      break;
    }
    case JsonValue::Kind::String: dump_string(v.as_string(), out); break;
    case JsonValue::Kind::Array: {
      out += '[';
      bool first = true;
      for (const JsonValue& e : v.as_array()) {
        if (!first) out += ',';
        first = false;
        dump_value(e, out);
      }
      out += ']';
      break;
    }
    case JsonValue::Kind::Object: {
      out += '{';
      bool first = true;
      for (const auto& [k, e] : v.as_object()) {
        if (!first) out += ',';
        first = false;
        dump_string(k, out);
        out += ':';
        dump_value(e, out);
      }
      out += '}';
      break;
    }
    case JsonValue::Kind::Raw: out += v.raw_text(); break;
  }
}

}  // namespace

JsonValue json_parse(std::string_view text) {
  return Parser(text).parse_document();
}

std::string json_dump(const JsonValue& v) {
  std::string out;
  dump_value(v, out);
  return out;
}

}  // namespace pprophet::serve
