#include "common/value.h"

#include <cmath>
#include <sstream>

namespace zstream {

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kBool:
      return "bool";
    case ValueType::kInt64:
      return "int64";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "unknown";
}

Result<int> Value::Compare(const Value& other) const {
  if (is_null() || other.is_null()) {
    return Status::InvalidArgument("cannot compare null values");
  }
  if (is_numeric() && other.is_numeric()) {
    const double a = AsDouble();
    const double b = other.AsDouble();
    if (a < b) return -1;
    if (a > b) return 1;
    return 0;
  }
  if (is_string() && other.is_string()) {
    const int c = string_value().compare(other.string_value());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  if (is_bool() && other.is_bool()) {
    return static_cast<int>(bool_value()) - static_cast<int>(other.bool_value());
  }
  return Status::InvalidArgument(
      std::string("cannot compare ") + ValueTypeName(type()) + " with " +
      ValueTypeName(other.type()));
}

bool Value::operator==(const Value& other) const {
  if (is_null() || other.is_null()) return is_null() && other.is_null();
  if (is_numeric() && other.is_numeric()) return AsDouble() == other.AsDouble();
  if (is_string() && other.is_string()) {
    return string_value() == other.string_value();
  }
  if (is_bool() && other.is_bool()) return bool_value() == other.bool_value();
  return false;
}

size_t HashNumericValue(double d) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  __builtin_memcpy(&bits, &d, sizeof(bits));
  // Normalize -0.0 to 0.0.
  if (d == 0.0) bits = 0;
  bits ^= bits >> 33;
  bits *= 0xff51afd7ed558ccdULL;
  bits ^= bits >> 33;
  return static_cast<size_t>(bits);
}

size_t Value::Hash() const {
  switch (type()) {
    case ValueType::kNull:
      return HashNullValue();
    case ValueType::kBool:
      return HashBoolValue(bool_value());
    case ValueType::kInt64:
    case ValueType::kDouble:
      return HashNumericValue(AsDouble());
    case ValueType::kString:
      return HashStringValue(string_value());
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "null";
    case ValueType::kBool:
      return bool_value() ? "true" : "false";
    case ValueType::kInt64:
      return std::to_string(int64_value());
    case ValueType::kDouble: {
      std::ostringstream os;
      os << double_value();
      return os.str();
    }
    case ValueType::kString:
      return "'" + string_value() + "'";
  }
  return "?";
}

namespace {
template <typename IntOp, typename DoubleOp>
Value NumericBinary(const Value& a, const Value& b, IntOp iop, DoubleOp dop) {
  if (!a.is_numeric() || !b.is_numeric()) return Value::Null();
  if (a.is_int64() && b.is_int64()) {
    return iop(a.int64_value(), b.int64_value());
  }
  return dop(a.AsDouble(), b.AsDouble());
}
}  // namespace

Value Add(const Value& a, const Value& b) {
  return NumericBinary(
      a, b, [](int64_t x, int64_t y) { return Value(x + y); },
      [](double x, double y) { return Value(x + y); });
}

Value Subtract(const Value& a, const Value& b) {
  return NumericBinary(
      a, b, [](int64_t x, int64_t y) { return Value(x - y); },
      [](double x, double y) { return Value(x - y); });
}

Value Multiply(const Value& a, const Value& b) {
  return NumericBinary(
      a, b, [](int64_t x, int64_t y) { return Value(x * y); },
      [](double x, double y) { return Value(x * y); });
}

Value Divide(const Value& a, const Value& b) {
  return NumericBinary(
      a, b,
      [](int64_t x, int64_t y) { return y == 0 ? Value::Null() : Value(x / y); },
      [](double x, double y) { return y == 0.0 ? Value::Null() : Value(x / y); });
}

Value Modulo(const Value& a, const Value& b) {
  return NumericBinary(
      a, b,
      [](int64_t x, int64_t y) { return y == 0 ? Value::Null() : Value(x % y); },
      [](double x, double y) {
        return y == 0.0 ? Value::Null() : Value(std::fmod(x, y));
      });
}

}  // namespace zstream
