#include "stream/value.h"

#include <cmath>
#include <functional>
#include <limits>

#include "common/string_util.h"

namespace esp::stream {

Value Value::Interned(std::string_view s) {
  if (std::optional<uint32_t> id = SymbolTable::Global().TryIntern(s)) {
    return Value(Storage(Symbol{*id}));
  }
  return Value::String(std::string(s));
}

DataType Value::type() const {
  switch (data_.index()) {
    case 0:
      return DataType::kNull;
    case 1:
      return DataType::kBool;
    case 2:
      return DataType::kInt64;
    case 3:
      return DataType::kDouble;
    case 4:
      return DataType::kString;
    case 5:
      return DataType::kTimestamp;
    case 6:
      return DataType::kString;  // Interned symbol.
  }
  return DataType::kNull;
}

StatusOr<double> Value::AsDouble() const {
  switch (type()) {
    case DataType::kInt64:
      return static_cast<double>(int64_value());
    case DataType::kDouble:
      return double_value();
    default:
      return Status::TypeError(std::string("cannot convert ") +
                               DataTypeToString(type()) + " to double");
  }
}

StatusOr<int64_t> Value::AsInt64() const {
  switch (type()) {
    case DataType::kInt64:
      return int64_value();
    case DataType::kBool:
      return static_cast<int64_t>(bool_value());
    default:
      return Status::TypeError(std::string("cannot convert ") +
                               DataTypeToString(type()) + " to int64");
  }
}

bool Value::Equals(const Value& other) const {
  // Numeric cross-type equality: 1 == 1.0.
  if (is_numeric() && other.is_numeric() && type() != other.type()) {
    return AsDouble().value() == other.AsDouble().value();
  }
  // Interned and plain strings are the same logical type: equal ids fast-
  // path, otherwise content comparison. The variant == below would compare
  // alternative indices and wrongly report symbol != string.
  if (is_interned() || other.is_interned()) {
    if (type() != other.type()) return false;
    if (is_interned() && other.is_interned()) return symbol() == other.symbol();
    return string_value() == other.string_value();
  }
  return data_ == other.data_;
}

StatusOr<int> Value::Compare(const Value& other) const {
  const DataType lhs_type = type();
  const DataType rhs_type = other.type();
  if (lhs_type == DataType::kNull || rhs_type == DataType::kNull) {
    return Status::TypeError("null is not comparable");
  }
  if (IsNumericType(lhs_type) && IsNumericType(rhs_type)) {
    const double a = AsDouble().value();
    const double b = other.AsDouble().value();
    if (a < b) return -1;
    if (a > b) return 1;
    return 0;
  }
  if (lhs_type != rhs_type) {
    return Status::TypeError(std::string("cannot compare ") +
                             DataTypeToString(lhs_type) + " with " +
                             DataTypeToString(rhs_type));
  }
  switch (lhs_type) {
    case DataType::kBool: {
      const int a = bool_value() ? 1 : 0;
      const int b = other.bool_value() ? 1 : 0;
      return a - b;
    }
    case DataType::kString: {
      if (is_interned() && other.is_interned() && symbol() == other.symbol()) {
        return 0;
      }
      const int cmp = string_value().compare(other.string_value());
      return cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
    }
    case DataType::kTimestamp: {
      if (time_value() < other.time_value()) return -1;
      if (time_value() > other.time_value()) return 1;
      return 0;
    }
    default:
      return Status::TypeError("unsupported comparison");
  }
}

std::string Value::ToString() const {
  switch (type()) {
    case DataType::kNull:
      return "null";
    case DataType::kBool:
      return bool_value() ? "true" : "false";
    case DataType::kInt64:
      return std::to_string(int64_value());
    case DataType::kDouble: {
      const double v = double_value();
      // Render integral doubles without a trailing ".000000".
      if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15) {
        return StrFormat("%.1f", v);
      }
      return StrFormat("%g", v);
    }
    case DataType::kString:
      return string_value();
    case DataType::kTimestamp:
      return time_value().ToString();
  }
  return "?";
}

size_t Value::Hash() const {
  switch (type()) {
    case DataType::kNull:
      return 0x9e3779b9;
    case DataType::kBool:
      return std::hash<bool>{}(bool_value());
    case DataType::kInt64: {
      // Hash integral values via double so 1 and 1.0 collide (they compare
      // equal).
      return std::hash<double>{}(static_cast<double>(int64_value()));
    }
    case DataType::kDouble:
      return std::hash<double>{}(double_value());
    case DataType::kString:
      // Interned values reuse the table's precomputed content hash, which
      // is the same std::hash<std::string> a plain string computes here.
      if (is_interned()) return SymbolTable::Global().HashOf(symbol().id);
      return std::hash<std::string>{}(string_value());
    case DataType::kTimestamp:
      return std::hash<int64_t>{}(time_value().micros());
  }
  return 0;
}

namespace {

/// Shared implementation for the four basic arithmetic operators.
/// `int_op(x, y, &result)` returns true when the int64 result overflows,
/// which is an error rather than a wrapped (undefined) value.
template <typename IntOp, typename DoubleOp>
StatusOr<Value> Arith(const Value& a, const Value& b, IntOp int_op,
                      DoubleOp double_op, bool is_division) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (!a.is_numeric() || !b.is_numeric()) {
    return Status::TypeError(std::string("arithmetic requires numbers, got ") +
                             DataTypeToString(a.type()) + " and " +
                             DataTypeToString(b.type()));
  }
  if (a.type() == DataType::kInt64 && b.type() == DataType::kInt64) {
    if (is_division && b.int64_value() == 0) {
      return Status::InvalidArgument("division by zero");
    }
    int64_t result = 0;
    if (int_op(a.int64_value(), b.int64_value(), &result)) {
      return Status::InvalidArgument("integer overflow");
    }
    return Value::Int64(result);
  }
  const double lhs = a.AsDouble().value();
  const double rhs = b.AsDouble().value();
  if (is_division && rhs == 0.0) {
    return Status::InvalidArgument("division by zero");
  }
  return Value::Double(double_op(lhs, rhs));
}

}  // namespace

StatusOr<Value> Add(const Value& a, const Value& b) {
  return Arith(
      a, b,
      [](int64_t x, int64_t y, int64_t* r) {
        return __builtin_add_overflow(x, y, r);
      },
      [](double x, double y) { return x + y; }, /*is_division=*/false);
}

StatusOr<Value> Subtract(const Value& a, const Value& b) {
  return Arith(
      a, b,
      [](int64_t x, int64_t y, int64_t* r) {
        return __builtin_sub_overflow(x, y, r);
      },
      [](double x, double y) { return x - y; }, /*is_division=*/false);
}

StatusOr<Value> Multiply(const Value& a, const Value& b) {
  return Arith(
      a, b,
      [](int64_t x, int64_t y, int64_t* r) {
        return __builtin_mul_overflow(x, y, r);
      },
      [](double x, double y) { return x * y; }, /*is_division=*/false);
}

StatusOr<Value> Divide(const Value& a, const Value& b) {
  return Arith(
      a, b,
      [](int64_t x, int64_t y, int64_t* r) {
        if (x == std::numeric_limits<int64_t>::min() && y == -1) return true;
        *r = x / y;
        return false;
      },
      [](double x, double y) { return x / y; }, /*is_division=*/true);
}

StatusOr<Value> Modulo(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (a.type() != DataType::kInt64 || b.type() != DataType::kInt64) {
    return Status::TypeError("modulo requires integer operands");
  }
  if (b.int64_value() == 0) {
    return Status::InvalidArgument("modulo by zero");
  }
  // x % -1 is 0 for every x; computing it would overflow for INT64_MIN.
  if (b.int64_value() == -1) return Value::Int64(0);
  return Value::Int64(a.int64_value() % b.int64_value());
}

StatusOr<Value> Negate(const Value& a) {
  if (a.is_null()) return Value::Null();
  if (a.type() == DataType::kInt64) {
    if (a.int64_value() == std::numeric_limits<int64_t>::min()) {
      return Status::InvalidArgument("integer overflow");
    }
    return Value::Int64(-a.int64_value());
  }
  if (a.type() == DataType::kDouble) return Value::Double(-a.double_value());
  return Status::TypeError("negation requires a number");
}

}  // namespace esp::stream
