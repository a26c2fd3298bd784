#pragma once
// Minimal JSON value type for the newline-delimited protocol spoken by
// symcolor_serve. Self-contained on purpose: the container bakes no JSON
// library, and the protocol needs only scalars, arrays, and objects.
//
// Robustness notes (this parses bytes from untrusted clients):
//   * parse() never throws — malformed input returns std::nullopt;
//   * nesting depth is capped (kMaxDepth) so a hostile "[[[[..." line
//     cannot blow the parser's stack;
//   * objects keep keys in sorted order (std::map), so dump() output is
//     deterministic — tests and the CI smoke script compare strings.
//
// Numbers are stored as int64 when the literal looks integral (no '.',
// 'e', or 'E') and as double otherwise; as_int()/as_double() convert
// across the two freely.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace symcolor {

class Json {
 public:
  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  /// Maximum array/object nesting parse() accepts.
  static constexpr int kMaxDepth = 64;

  Json() noexcept : value_(nullptr) {}
  Json(std::nullptr_t) noexcept : value_(nullptr) {}  // NOLINT
  Json(bool b) noexcept : value_(b) {}                // NOLINT
  Json(int n) noexcept : value_(std::int64_t{n}) {}   // NOLINT
  Json(std::int64_t n) noexcept : value_(n) {}        // NOLINT
  Json(double d) noexcept : value_(d) {}              // NOLINT
  Json(const char* s) : value_(std::string(s)) {}     // NOLINT
  Json(std::string s) : value_(std::move(s)) {}       // NOLINT
  Json(Array a) : value_(std::move(a)) {}             // NOLINT
  Json(Object o) : value_(std::move(o)) {}            // NOLINT

  /// Parse one JSON document; std::nullopt on any syntax error, trailing
  /// garbage, or nesting beyond kMaxDepth.
  [[nodiscard]] static std::optional<Json> parse(std::string_view text);

  /// Serialize compactly (no whitespace). Deterministic: object keys are
  /// emitted in sorted order.
  [[nodiscard]] std::string dump() const;

  [[nodiscard]] bool is_null() const noexcept {
    return std::holds_alternative<std::nullptr_t>(value_);
  }
  [[nodiscard]] bool is_bool() const noexcept {
    return std::holds_alternative<bool>(value_);
  }
  [[nodiscard]] bool is_int() const noexcept {
    return std::holds_alternative<std::int64_t>(value_);
  }
  [[nodiscard]] bool is_number() const noexcept {
    return is_int() || std::holds_alternative<double>(value_);
  }
  [[nodiscard]] bool is_string() const noexcept {
    return std::holds_alternative<std::string>(value_);
  }
  [[nodiscard]] bool is_array() const noexcept {
    return std::holds_alternative<Array>(value_);
  }
  [[nodiscard]] bool is_object() const noexcept {
    return std::holds_alternative<Object>(value_);
  }

  [[nodiscard]] bool as_bool(bool fallback = false) const noexcept {
    const bool* b = std::get_if<bool>(&value_);
    return b != nullptr ? *b : fallback;
  }
  /// An integer as is, a double truncated toward zero; `fallback` for
  /// anything else, including a NaN, an infinity or a double outside the
  /// int64 range, whose conversion would be undefined.
  [[nodiscard]] std::int64_t as_int(std::int64_t fallback = 0) const noexcept {
    if (const auto* i = std::get_if<std::int64_t>(&value_)) return *i;
    if (const auto* d = std::get_if<double>(&value_)) {
      // [-2^63, 2^63) is exactly the doubles that truncate into int64;
      // NaN fails both comparisons.
      if (*d >= -0x1p63 && *d < 0x1p63) return static_cast<std::int64_t>(*d);
    }
    return fallback;
  }
  [[nodiscard]] double as_double(double fallback = 0.0) const noexcept {
    if (const auto* d = std::get_if<double>(&value_)) return *d;
    if (const auto* i = std::get_if<std::int64_t>(&value_)) {
      return static_cast<double>(*i);
    }
    return fallback;
  }
  [[nodiscard]] const std::string& as_string() const noexcept {
    static const std::string kEmpty;
    const std::string* s = std::get_if<std::string>(&value_);
    return s != nullptr ? *s : kEmpty;
  }
  [[nodiscard]] const Array& as_array() const noexcept {
    static const Array kEmpty;
    const Array* a = std::get_if<Array>(&value_);
    return a != nullptr ? *a : kEmpty;
  }
  [[nodiscard]] const Object& as_object() const noexcept {
    static const Object kEmpty;
    const Object* o = std::get_if<Object>(&value_);
    return o != nullptr ? *o : kEmpty;
  }

  /// Object member lookup; nullptr when this is not an object or the key
  /// is absent. The usual protocol accessor:
  ///   if (const Json* op = msg.find("op")) ...
  [[nodiscard]] const Json* find(const std::string& key) const noexcept {
    const Object* o = std::get_if<Object>(&value_);
    if (o == nullptr) return nullptr;
    const auto it = o->find(key);
    return it != o->end() ? &it->second : nullptr;
  }

  // Typed object-member conveniences with fallbacks.
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback = 0) const noexcept {
    const Json* v = find(key);
    return v != nullptr && v->is_number() ? v->as_int() : fallback;
  }
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback = 0.0) const noexcept {
    const Json* v = find(key);
    return v != nullptr && v->is_number() ? v->as_double() : fallback;
  }
  [[nodiscard]] bool get_bool(const std::string& key,
                              bool fallback = false) const noexcept {
    const Json* v = find(key);
    return v != nullptr ? v->as_bool(fallback) : fallback;
  }
  [[nodiscard]] std::string get_string(const std::string& key,
                                       std::string fallback = {}) const {
    const Json* v = find(key);
    return v != nullptr && v->is_string() ? v->as_string()
                                          : std::move(fallback);
  }

  /// Mutable object member access (creates the object/key as needed);
  /// the builder-side counterpart of find().
  Json& operator[](const std::string& key) {
    if (!is_object()) value_ = Object{};
    return std::get<Object>(value_)[key];
  }

 private:
  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array,
               Object>
      value_;
};

}  // namespace symcolor
