#include "core/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "core/error.h"

namespace wild5g::json {

Value::Value(std::string s) : type_(Type::kString), string_(std::move(s)) {}
Value::Value(const char* s) : type_(Type::kString), string_(s) {}

Value Value::array() {
  Value v;
  v.type_ = Type::kArray;
  return v;
}

Value Value::object() {
  Value v;
  v.type_ = Type::kObject;
  return v;
}

bool Value::as_bool() const {
  require(is_bool(), "json: value is not a bool");
  return bool_;
}

double Value::as_number() const {
  require(is_number(), "json: value is not a number");
  return number_;
}

const std::string& Value::as_string() const {
  require(is_string(), "json: value is not a string");
  return string_;
}

const std::vector<Value>& Value::as_array() const {
  require(is_array(), "json: value is not an array");
  return array_;
}

const std::vector<Member>& Value::as_object() const {
  require(is_object(), "json: value is not an object");
  return object_;
}

void Value::push_back(Value element) {
  require(is_array(), "json: push_back on non-array");
  array_.push_back(std::move(element));
}

void Value::set(std::string key, Value value) {
  require(is_object(), "json: set on non-object");
  for (auto& member : object_) {
    if (member.key == key) {
      member.value = std::move(value);
      return;
    }
  }
  object_.push_back(Member{std::move(key), std::move(value)});
}

const Value* Value::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& member : object_) {
    if (member.key == key) return &member.value;
  }
  return nullptr;
}

std::size_t Value::size() const {
  if (is_array()) return array_.size();
  if (is_object()) return object_.size();
  throw Error("json: size() on non-container");
}

namespace {

// Appends the shortest decimal that reads back as exactly `value`, in %g
// form. std::to_chars gives the shortest round-trip digit count n: no
// decimal with fewer significant digits reads back as `value`, so %.*g at
// precisions 1..n-1 would fail the strtod check below and the search starts
// at n. The check stays for the rare value whose correctly rounded n-digit
// %g string is not the shortest round-trip one; the search then goes on to
// n+1, exactly as a search from precision 1 would.
void append_number(double value, std::string& out) {
  require(std::isfinite(value),
          "json: cannot serialize non-finite number (NaN or infinity)");
  char buffer[40];
  const char* const end =
      std::to_chars(buffer, buffer + sizeof(buffer), value,
                    std::chars_format::scientific)
          .ptr;
  int precision = 0;
  for (const char* p = buffer; p != end && *p != 'e'; ++p) {
    if (*p >= '0' && *p <= '9') ++precision;
  }
  int length = 0;
  for (; precision <= 17; ++precision) {
    // wild5g-lint: allow(printf-float) this IS the deterministic formatter:
    // %.*g renders the shortest round-trip digits every other caller must
    // use; to_chars only picks the precision the search starts at.
    length = std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) break;
  }
  out.append(buffer, static_cast<std::size_t>(length));
}

void escape_string(const std::string& s, std::string& out) {
  out += '"';
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buffer;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
}

void dump_value(const Value& value, int indent, std::string& out) {
  const auto pad = static_cast<std::size_t>(indent) * 2;
  const auto inner_pad = pad + 2;
  switch (value.type()) {
    case Value::Type::kNull:
      out += "null";
      break;
    case Value::Type::kBool:
      out += value.as_bool() ? "true" : "false";
      break;
    case Value::Type::kNumber:
      append_number(value.as_number(), out);
      break;
    case Value::Type::kString:
      escape_string(value.as_string(), out);
      break;
    case Value::Type::kArray: {
      const auto& elements = value.as_array();
      if (elements.empty()) {
        out += "[]";
        break;
      }
      out += "[\n";
      for (std::size_t i = 0; i < elements.size(); ++i) {
        out.append(inner_pad, ' ');
        dump_value(elements[i], indent + 1, out);
        if (i + 1 < elements.size()) out += ',';
        out += '\n';
      }
      out.append(pad, ' ');
      out += ']';
      break;
    }
    case Value::Type::kObject: {
      const auto& members = value.as_object();
      if (members.empty()) {
        out += "{}";
        break;
      }
      out += "{\n";
      for (std::size_t i = 0; i < members.size(); ++i) {
        out.append(inner_pad, ' ');
        escape_string(members[i].key, out);
        out += ": ";
        dump_value(members[i].value, indent + 1, out);
        if (i + 1 < members.size()) out += ',';
        out += '\n';
      }
      out.append(pad, ' ');
      out += '}';
      break;
    }
  }
}

void dump_value_compact(const Value& value, std::string& out) {
  switch (value.type()) {
    case Value::Type::kNull:
      out += "null";
      break;
    case Value::Type::kBool:
      out += value.as_bool() ? "true" : "false";
      break;
    case Value::Type::kNumber:
      append_number(value.as_number(), out);
      break;
    case Value::Type::kString:
      escape_string(value.as_string(), out);
      break;
    case Value::Type::kArray: {
      const auto& elements = value.as_array();
      out += '[';
      for (std::size_t i = 0; i < elements.size(); ++i) {
        if (i > 0) out += ',';
        dump_value_compact(elements[i], out);
      }
      out += ']';
      break;
    }
    case Value::Type::kObject: {
      const auto& members = value.as_object();
      out += '{';
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (i > 0) out += ',';
        escape_string(members[i].key, out);
        out += ':';
        dump_value_compact(members[i].value, out);
      }
      out += '}';
      break;
    }
  }
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value value = parse_value();
    skip_whitespace();
    require(pos_ == text_.size(),
            "json: trailing garbage after document" + location());
    return value;
  }

 private:
  static constexpr int kMaxDepth = 200;

  [[noreturn]] void fail(const std::string& message) {
    throw Error("json: " + message + location());
  }

  std::string location() const {
    return " (at byte " + std::to_string(pos_) + ")";
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char ch, const char* what) {
    if (pos_ >= text_.size() || text_[pos_] != ch) {
      fail(std::string("expected ") + what);
    }
    ++pos_;
  }

  void expect_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      fail("invalid literal");
    }
    pos_ += literal.size();
  }

  Value parse_value() {
    require(depth_ < kMaxDepth, "json: nesting too deep");
    skip_whitespace();
    switch (peek()) {
      case 'n': expect_literal("null"); return Value(nullptr);
      case 't': expect_literal("true"); return Value(true);
      case 'f': expect_literal("false"); return Value(false);
      case '"': return Value(parse_string());
      case '[': return parse_array();
      case '{': return parse_object();
      default: return parse_number();
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    const auto digits = [&] {
      std::size_t n = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++n;
      }
      return n;
    };
    if (digits() == 0) fail("invalid number");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) fail("invalid number: missing fraction digits");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (digits() == 0) fail("invalid number: missing exponent digits");
    }
    // The token is validated JSON, which from_chars reads in place. On
    // underflow libstdc++ reports result_out_of_range where strtod returns
    // 0, -0 or a subnormal, so any unclean result takes the strtod path.
    const char* const first = text_.data() + start;
    const char* const last = text_.data() + pos_;
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec != std::errc() || ptr != last) {
      const std::string token(first, last);
      value = std::strtod(token.c_str(), nullptr);
    }
    if (!std::isfinite(value)) fail("number out of range");
    return Value(value);
  }

  std::string parse_string() {
    expect('"', "'\"'");
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char ch = text_[pos_++];
      if (ch == '"') return out;
      if (static_cast<unsigned char>(ch) < 0x20) {
        fail("unescaped control character in string");
      }
      if (ch != '\\') {
        out += ch;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': out += parse_unicode_escape(); break;
        default: fail("invalid escape character");
      }
    }
  }

  std::string parse_unicode_escape() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char ch = text_[pos_++];
      code <<= 4;
      if (ch >= '0' && ch <= '9') {
        code |= static_cast<unsigned>(ch - '0');
      } else if (ch >= 'a' && ch <= 'f') {
        code |= static_cast<unsigned>(ch - 'a' + 10);
      } else if (ch >= 'A' && ch <= 'F') {
        code |= static_cast<unsigned>(ch - 'A' + 10);
      } else {
        fail("invalid hex digit in \\u escape");
      }
    }
    if (code >= 0xD800 && code <= 0xDFFF) {
      fail("surrogate \\u escapes are not supported");
    }
    std::string out;
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
    return out;
  }

  Value parse_array() {
    expect('[', "'['");
    ++depth_;
    Value out = Value::array();
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      --depth_;
      return out;
    }
    while (true) {
      out.push_back(parse_value());
      skip_whitespace();
      const char ch = peek();
      if (ch == ',') {
        ++pos_;
        continue;
      }
      if (ch == ']') {
        ++pos_;
        --depth_;
        return out;
      }
      fail("expected ',' or ']' in array");
    }
  }

  Value parse_object() {
    expect('{', "'{'");
    ++depth_;
    Value out = Value::object();
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      --depth_;
      return out;
    }
    while (true) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':', "':' after object key");
      out.set(std::move(key), parse_value());
      skip_whitespace();
      const char ch = peek();
      if (ch == ',') {
        ++pos_;
        continue;
      }
      if (ch == '}') {
        ++pos_;
        --depth_;
        return out;
      }
      fail("expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

std::string format_number(double value) {
  std::string out;
  append_number(value, out);
  return out;
}

std::string dump(const Value& value) {
  std::string out;
  dump_value(value, 0, out);
  out += '\n';
  return out;
}

std::string dump_compact(const Value& value) {
  std::string out;
  dump_value_compact(value, out);
  return out;
}

Value parse(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace wild5g::json
