#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace eblnet::testing {

/// Parsed JSON document, the tests' read side of core::JsonWriter: the
/// writer emits the manifests, and this recursive-descent parser loads
/// them back without a third-party dependency, so the tests can check
/// values and key paths. It is deliberately strict (one document, fully
/// consumed, no extensions), so malformed writer output fails to parse.
///
/// Numbers keep their exact integer identity when they have one: an
/// unsigned integral token round-trips any u64 (sequence numbers,
/// counters), a signed one any i64 (nanosecond timestamps); everything
/// else goes through strtod, which inverts the writer's 17-significant-
/// digit rendering exactly. "-0" is stored as the double -0.0 so a
/// re-render preserves the sign.
class JsonValue {
 public:
  enum class Kind : std::uint8_t { kNull, kBool, kU64, kI64, kDouble, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  /// Insertion-ordered members (duplicate keys keep the first).
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() = default;

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::kNull; }
  bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  bool is_number() const noexcept {
    return kind_ == Kind::kU64 || kind_ == Kind::kI64 || kind_ == Kind::kDouble;
  }
  bool is_string() const noexcept { return kind_ == Kind::kString; }
  bool is_array() const noexcept { return kind_ == Kind::kArray; }
  bool is_object() const noexcept { return kind_ == Kind::kObject; }

  bool as_bool() const noexcept { return b_; }
  /// Numeric views. as_double() on null returns NaN — the writer emits
  /// non-finite doubles as null, so null *is* the non-finite encoding.
  /// The integer views saturate at their type's range (an exponent
  /// literal such as 1e300 reads as the maximum); NaN reads 0, and so
  /// does a negative number in as_u64().
  double as_double() const noexcept;
  std::uint64_t as_u64() const noexcept;
  std::int64_t as_i64() const noexcept;
  const std::string& as_string() const noexcept { return str_; }
  const Array& as_array() const noexcept { return arr_; }
  const Object& as_object() const noexcept { return obj_; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const noexcept;

  // --- construction (used by the parser and tests) ---
  static JsonValue null() { return JsonValue{}; }
  static JsonValue boolean(bool v);
  static JsonValue number(double v);
  static JsonValue number(std::uint64_t v);
  static JsonValue number(std::int64_t v);
  static JsonValue string(std::string v);
  static JsonValue array(Array v);
  static JsonValue object(Object v);

 private:
  Kind kind_{Kind::kNull};
  bool b_{false};
  double d_{0.0};
  std::uint64_t u_{0};
  std::int64_t i_{0};
  std::string str_;
  Array arr_;
  Object obj_;
};

/// Parse one JSON document. Returns nullopt on any syntax error, partial
/// document, or trailing garbage (whitespace excepted).
std::optional<JsonValue> parse_json(std::string_view text);

}  // namespace eblnet::testing
