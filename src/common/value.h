// Typed runtime values for event attributes and expression evaluation.
#ifndef ZSTREAM_COMMON_VALUE_H_
#define ZSTREAM_COMMON_VALUE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <variant>

#include "common/result.h"
#include "common/status.h"

namespace zstream {

enum class ValueType : char { kNull = 0, kBool, kInt64, kDouble, kString };

const char* ValueTypeName(ValueType type);

/// \brief A dynamically typed scalar: null, bool, int64, double or string.
///
/// Numeric comparisons and arithmetic coerce int64 and double to double.
/// Any operation touching a null yields null (three-valued logic at the
/// predicate level: null never satisfies a predicate).
class Value {
 public:
  Value() : rep_(std::monostate{}) {}
  explicit Value(bool v) : rep_(v) {}
  explicit Value(int64_t v) : rep_(v) {}
  explicit Value(int v) : rep_(static_cast<int64_t>(v)) {}
  explicit Value(double v) : rep_(v) {}
  explicit Value(std::string v) : rep_(std::move(v)) {}
  explicit Value(const char* v) : rep_(std::string(v)) {}

  static Value Null() { return Value(); }

  ValueType type() const {
    return static_cast<ValueType>(rep_.index() == 0 ? 0 : rep_.index());
  }
  bool is_null() const { return std::holds_alternative<std::monostate>(rep_); }
  bool is_bool() const { return std::holds_alternative<bool>(rep_); }
  bool is_int64() const { return std::holds_alternative<int64_t>(rep_); }
  bool is_double() const { return std::holds_alternative<double>(rep_); }
  bool is_string() const { return std::holds_alternative<std::string>(rep_); }
  bool is_numeric() const { return is_int64() || is_double(); }

  bool bool_value() const { return std::get<bool>(rep_); }
  int64_t int64_value() const { return std::get<int64_t>(rep_); }
  double double_value() const { return std::get<double>(rep_); }
  const std::string& string_value() const { return std::get<std::string>(rep_); }

  /// Numeric view: int64 and double both read as double.
  double AsDouble() const {
    return is_int64() ? static_cast<double>(int64_value()) : double_value();
  }

  /// True when the value is usable as a predicate outcome and is true.
  /// Nulls and non-bool values are not truthy. get_if (not
  /// holds_alternative + get) so GCC 12 at -O2 with sanitizers can see
  /// there is no exception path (-Wmaybe-uninitialized, PR80635 family).
  bool IsTruthy() const {
    const bool* b = std::get_if<bool>(&rep_);
    return b != nullptr && *b;
  }

  /// Three-way comparison for ordering; values must be comparable
  /// (both numeric, or both strings, or both bools). Nulls and mixed
  /// categories return an error.
  Result<int> Compare(const Value& other) const;

  /// Strict equality used by hash indexes (type category + content).
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// Hash consistent with operator== (numeric 3 == numeric 3.0): one
  /// of the per-type hashes below, which a reader of encoded values
  /// (event/row_codec.h) calls without building a Value.
  size_t Hash() const;

  std::string ToString() const;

 private:
  std::variant<std::monostate, bool, int64_t, double, std::string> rep_;
};

// The per-type halves of Value::Hash.
inline size_t HashNullValue() { return 0x9e3779b97f4a7c15ULL; }
inline size_t HashBoolValue(bool b) {
  return b ? 0x2545f4914f6cdd1dULL : 0x853c49e6748fea9bULL;
}
/// int64 and double both hash through the double, so 3 and 3.0 collide
/// (they compare equal); -0.0 hashes as 0.0.
size_t HashNumericValue(double d);
/// Equals std::hash<std::string> of the same bytes.
inline size_t HashStringValue(std::string_view s) {
  return std::hash<std::string_view>()(s);
}

struct ValueHasher {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

// Arithmetic. Numeric-only; int64 op int64 stays int64 (division by zero
// and modulo follow SQL-ish semantics and return null).
Value Add(const Value& a, const Value& b);
Value Subtract(const Value& a, const Value& b);
Value Multiply(const Value& a, const Value& b);
Value Divide(const Value& a, const Value& b);
Value Modulo(const Value& a, const Value& b);

}  // namespace zstream

#endif  // ZSTREAM_COMMON_VALUE_H_
