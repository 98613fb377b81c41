#include "json_value.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace eblnet::testing {

double JsonValue::as_double() const noexcept {
  switch (kind_) {
    case Kind::kU64: return static_cast<double>(u_);
    case Kind::kI64: return static_cast<double>(i_);
    case Kind::kDouble: return d_;
    case Kind::kNull: return std::numeric_limits<double>::quiet_NaN();
    default: return 0.0;
  }
}

std::uint64_t JsonValue::as_u64() const noexcept {
  switch (kind_) {
    case Kind::kU64: return u_;
    case Kind::kI64: return i_ >= 0 ? static_cast<std::uint64_t>(i_) : 0;
    case Kind::kDouble:
      // Casting a double outside the target range is undefined: saturate.
      if (!(d_ > 0.0)) return 0;  // NaN and negatives too
      if (d_ >= 0x1p64) return std::numeric_limits<std::uint64_t>::max();
      return static_cast<std::uint64_t>(d_);
    default: return 0;
  }
}

std::int64_t JsonValue::as_i64() const noexcept {
  switch (kind_) {
    case Kind::kU64:
      return u_ <= static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max())
                 ? static_cast<std::int64_t>(u_)
                 : std::numeric_limits<std::int64_t>::max();
    case Kind::kI64: return i_;
    case Kind::kDouble:
      if (std::isnan(d_)) return 0;
      if (d_ >= 0x1p63) return std::numeric_limits<std::int64_t>::max();
      if (d_ < -0x1p63) return std::numeric_limits<std::int64_t>::min();
      return static_cast<std::int64_t>(d_);
    default: return 0;
  }
}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : obj_)
    if (k == key) return &v;
  return nullptr;
}

JsonValue JsonValue::boolean(bool v) {
  JsonValue j;
  j.kind_ = Kind::kBool;
  j.b_ = v;
  return j;
}
JsonValue JsonValue::number(double v) {
  JsonValue j;
  j.kind_ = Kind::kDouble;
  j.d_ = v;
  return j;
}
JsonValue JsonValue::number(std::uint64_t v) {
  JsonValue j;
  j.kind_ = Kind::kU64;
  j.u_ = v;
  return j;
}
JsonValue JsonValue::number(std::int64_t v) {
  JsonValue j;
  j.kind_ = Kind::kI64;
  j.i_ = v;
  return j;
}
JsonValue JsonValue::string(std::string v) {
  JsonValue j;
  j.kind_ = Kind::kString;
  j.str_ = std::move(v);
  return j;
}
JsonValue JsonValue::array(Array v) {
  JsonValue j;
  j.kind_ = Kind::kArray;
  j.arr_ = std::move(v);
  return j;
}
JsonValue JsonValue::object(Object v) {
  JsonValue j;
  j.kind_ = Kind::kObject;
  j.obj_ = std::move(v);
  return j;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view s) : s_{s} {}

  std::optional<JsonValue> run() {
    auto v = value(0);
    if (!v) return std::nullopt;
    ws();
    if (i_ != s_.size()) return std::nullopt;  // trailing garbage
    return v;
  }

 private:
  /// Container depth guard: the writer nests a handful of levels, so a
  /// deeply recursive document is rejected, not recursed into.
  static constexpr int kMaxDepth = 64;

  void ws() {
    while (i_ < s_.size() &&
           (s_[i_] == ' ' || s_[i_] == '\n' || s_[i_] == '\t' || s_[i_] == '\r'))
      ++i_;
  }
  bool eat(char c) {
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  bool literal(std::string_view word) {
    if (s_.substr(i_, word.size()) != word) return false;
    i_ += word.size();
    return true;
  }

  std::optional<JsonValue> value(int depth) {
    if (depth >= kMaxDepth) return std::nullopt;
    ws();
    if (i_ >= s_.size()) return std::nullopt;
    switch (s_[i_]) {
      case '{': return object(depth);
      case '[': return array(depth);
      case '"': {
        auto s = string();
        if (!s) return std::nullopt;
        return JsonValue::string(std::move(*s));
      }
      case 't': return literal("true") ? std::optional{JsonValue::boolean(true)} : std::nullopt;
      case 'f': return literal("false") ? std::optional{JsonValue::boolean(false)} : std::nullopt;
      case 'n': return literal("null") ? std::optional{JsonValue::null()} : std::nullopt;
      default: return number();
    }
  }

  std::optional<JsonValue> object(int depth) {
    ++i_;  // '{'
    JsonValue::Object members;
    ws();
    if (eat('}')) return JsonValue::object(std::move(members));
    while (true) {
      ws();
      auto key = string();
      if (!key) return std::nullopt;
      ws();
      if (!eat(':')) return std::nullopt;
      auto v = value(depth + 1);
      if (!v) return std::nullopt;
      members.emplace_back(std::move(*key), std::move(*v));
      ws();
      if (eat(',')) continue;
      if (eat('}')) return JsonValue::object(std::move(members));
      return std::nullopt;
    }
  }

  std::optional<JsonValue> array(int depth) {
    ++i_;  // '['
    JsonValue::Array elements;
    ws();
    if (eat(']')) return JsonValue::array(std::move(elements));
    while (true) {
      auto v = value(depth + 1);
      if (!v) return std::nullopt;
      elements.push_back(std::move(*v));
      ws();
      if (eat(',')) continue;
      if (eat(']')) return JsonValue::array(std::move(elements));
      return std::nullopt;
    }
  }

  std::optional<std::string> string() {
    if (!eat('"')) return std::nullopt;
    std::string out;
    while (i_ < s_.size()) {
      const char c = s_[i_];
      if (c == '"') {
        ++i_;
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) return std::nullopt;  // raw control char
      if (c != '\\') {
        out += c;
        ++i_;
        continue;
      }
      ++i_;
      if (i_ >= s_.size()) return std::nullopt;
      switch (s_[i_++]) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (i_ + 4 > s_.size()) return std::nullopt;
          unsigned cp = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = s_[i_++];
            cp <<= 4;
            if (h >= '0' && h <= '9')
              cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              cp |= static_cast<unsigned>(h - 'A' + 10);
            else
              return std::nullopt;
          }
          // Surrogates never appear in the writer's output (it only
          // escapes control characters); reject rather than guess.
          if (cp >= 0xd800 && cp <= 0xdfff) return std::nullopt;
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xc0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
          }
          break;
        }
        default: return std::nullopt;
      }
    }
    return std::nullopt;  // unterminated
  }

  bool digit_run() {
    if (i_ >= s_.size() || s_[i_] < '0' || s_[i_] > '9') return false;
    while (i_ < s_.size() && s_[i_] >= '0' && s_[i_] <= '9') ++i_;
    return true;
  }

  std::optional<JsonValue> number() {
    // Strict JSON number grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
    // — no leading '+', no leading zeros, no bare '.'.
    const std::size_t start = i_;
    eat('-');
    if (eat('0')) {
      // A zero integer part takes no further digits.
    } else if (!digit_run()) {
      return std::nullopt;
    }
    bool integral = true;
    if (eat('.')) {
      integral = false;
      if (!digit_run()) return std::nullopt;
    }
    if (i_ < s_.size() && (s_[i_] == 'e' || s_[i_] == 'E')) {
      integral = false;
      ++i_;
      if (i_ < s_.size() && (s_[i_] == '+' || s_[i_] == '-')) ++i_;
      if (!digit_run()) return std::nullopt;
    }
    // Null-terminated copy for the strto* family.
    const std::string token{s_.substr(start, i_ - start)};
    char* end = nullptr;
    errno = 0;
    if (integral && token[0] != '-') {
      const unsigned long long u = std::strtoull(token.c_str(), &end, 10);
      if (end == token.c_str() + token.size() && errno == 0)
        return JsonValue::number(static_cast<std::uint64_t>(u));
    } else if (integral) {
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (end == token.c_str() + token.size() && errno == 0) {
        // "-0" must round-trip as the double -0.0, not the integer 0.
        if (v == 0) return JsonValue::number(-0.0);
        return JsonValue::number(static_cast<std::int64_t>(v));
      }
    }
    errno = 0;
    end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return std::nullopt;
    if (!std::isfinite(d)) return std::nullopt;  // overflowed literal
    return JsonValue::number(d);
  }

  std::string_view s_;
  std::size_t i_{0};
};

}  // namespace

std::optional<JsonValue> parse_json(std::string_view text) { return Parser{text}.run(); }

}  // namespace eblnet::testing
