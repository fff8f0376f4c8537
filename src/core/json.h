// wild5g/core: a minimal deterministic JSON document model.
//
// Backs the golden-metrics regression harness: every bench binary serializes
// its figure/table data through this writer, and tools/golden_check parses
// the committed baselines back for tolerance-aware comparison. The writer is
// deterministic by construction (insertion-ordered objects, shortest
// round-tripping number rendering) so byte-identical output doubles as a
// determinism gate.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace wild5g::json {

class Value;

/// One key/value pair of an object. Objects preserve insertion order so the
/// emitted document is stable across runs.
struct Member;

/// A JSON document node: null, bool, number, string, array, or object.
class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;
  Value(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  Value(bool b) : type_(Type::kBool), bool_(b) {}  // NOLINT
  Value(double d) : type_(Type::kNumber), number_(d) {}  // NOLINT
  Value(int i) : type_(Type::kNumber), number_(i) {}  // NOLINT
  Value(std::int64_t i)  // NOLINT(google-explicit-constructor)
      : type_(Type::kNumber), number_(static_cast<double>(i)) {}
  Value(std::uint64_t i)  // NOLINT(google-explicit-constructor)
      : type_(Type::kNumber), number_(static_cast<double>(i)) {}
  Value(std::string s);  // NOLINT(google-explicit-constructor)
  Value(const char* s);  // NOLINT(google-explicit-constructor)

  /// Empty-container factories (a default Value is null, not `{}`/`[]`).
  [[nodiscard]] static Value array();
  [[nodiscard]] static Value object();

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const { return type_ == Type::kNumber; }
  [[nodiscard]] bool is_string() const { return type_ == Type::kString; }
  [[nodiscard]] bool is_array() const { return type_ == Type::kArray; }
  [[nodiscard]] bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; throw wild5g::Error on type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<Value>& as_array() const;
  [[nodiscard]] const std::vector<Member>& as_object() const;

  /// Array mutation; throws unless this value is an array.
  void push_back(Value element);

  /// Object mutation: sets `key` (replacing an existing entry in place, so
  /// insertion order is stable); throws unless this value is an object.
  void set(std::string key, Value value);

  /// Object lookup; returns nullptr when the key is absent (or this value is
  /// not an object).
  [[nodiscard]] const Value* find(std::string_view key) const;

  /// Number of elements (array) or members (object); throws otherwise.
  [[nodiscard]] std::size_t size() const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> array_;
  std::vector<Member> object_;
};

struct Member {
  std::string key;
  Value value;
};

/// Renders `value` as the shortest decimal string that parses back to the
/// exact same double ("13.5", not "13.500000000000000"), in printf %g form:
/// an integral value that ends in zeros comes out in exponent form ("10" is
/// "1e+01"), so a reader must not expect an integer token. Throws wild5g::Error
/// for NaN or infinity — JSON has no representation for them, and silently
/// emitting `null` would corrupt a golden baseline.
[[nodiscard]] std::string format_number(double value);

/// Serializes `value` as pretty-printed JSON (2-space indent, trailing
/// newline at top level). Deterministic: same document -> same bytes.
[[nodiscard]] std::string dump(const Value& value);

/// Serializes `value` as single-line JSON with no whitespace. Backs the
/// campaign server's line-oriented protocol, where every metric frame must
/// fit one line and byte-identical streams are the determinism gate.
[[nodiscard]] std::string dump_compact(const Value& value);

/// Parses a JSON document. Throws wild5g::Error with a position-annotated
/// message on malformed input (truncated document, bad escapes, trailing
/// garbage, non-finite numbers, nesting deeper than 200 levels).
[[nodiscard]] Value parse(std::string_view text);

}  // namespace wild5g::json
