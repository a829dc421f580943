// Minimal JSON value type, parser, and writer (no external dependencies).
//
// Supports the full JSON grammar except \u escapes beyond the Basic Latin
// range (parsed but emitted verbatim). Used by model/serialize.h to make
// scenarios, allocations, and experiment results portable and replayable.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

namespace cloudalloc {

class Json;
using JsonArray = std::vector<Json>;
using JsonObject = std::map<std::string, Json>;

/// An immutable-ish JSON document node. Construction is implicit from the
/// natural C++ types; access is checked (CHECK on type mismatch) with
/// `try_*` variants for tolerant probing.
class Json {
 public:
  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int i) : value_(static_cast<double>(i)) {}
  Json(std::int64_t i) : value_(static_cast<double>(i)) {}
  Json(std::uint64_t i) : value_(static_cast<double>(i)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(JsonArray a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_number() const { return std::holds_alternative<double>(value_); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<JsonArray>(value_); }
  bool is_object() const { return std::holds_alternative<JsonObject>(value_); }

  bool as_bool() const;
  double as_number() const;
  std::int64_t as_int() const;
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  const JsonObject& as_object() const;

  /// Object member access; CHECKs that this is an object holding `key`.
  const Json& at(const std::string& key) const;
  /// Tolerant member probe: nullptr when absent or not an object.
  const Json* find(const std::string& key) const;

  /// Serializes; `indent` < 0 means compact single-line output.
  std::string dump(int indent = -1) const;

  /// Parses a complete JSON document; nullopt (with a position-bearing
  /// message in *error) on malformed input.
  static std::optional<Json> parse(const std::string& text,
                                   std::string* error = nullptr);

 private:
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      value_;
};

/// The value of `d` as a T when `d` is a whole number within T's range;
/// nullopt for fractions, NaN, infinities and anything out of range. The
/// range test runs before the conversion, which is undefined for an
/// out-of-range double. Decoders of untrusted documents read every
/// integer field through this.
template <class T>
std::optional<T> exact_integer(double d) {
  static_assert(std::is_integral_v<T>);
  const double lo = static_cast<double>(std::numeric_limits<T>::min());
  const double hi = std::ldexp(1.0, std::numeric_limits<T>::digits);  // max+1
  if (!(d >= lo && d < hi) || std::trunc(d) != d) return std::nullopt;
  return static_cast<T>(d);
}

}  // namespace cloudalloc
