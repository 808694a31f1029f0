#ifndef ESP_STREAM_VALUE_H_
#define ESP_STREAM_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "common/status.h"
#include "common/time.h"
#include "stream/symbol_table.h"
#include "stream/type.h"

namespace esp::stream {

/// \brief A single dynamically-typed field value in a tuple.
///
/// Values are small and cheap to copy (strings use std::string). Comparison
/// and arithmetic follow SQL-flavoured rules: int64 and double coerce to
/// double when mixed; null propagates through arithmetic; comparisons against
/// null yield null (represented by StatusOr carrying a null Value where the
/// caller decides, or the convenience predicates below which treat null as
/// false).
class Value {
 public:
  /// Constructs a null value.
  Value() : data_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Bool(bool v) { return Value(Storage(v)); }
  static Value Int64(int64_t v) { return Value(Storage(v)); }
  static Value Double(double v) { return Value(Storage(v)); }
  static Value String(std::string v) { return Value(Storage(std::move(v))); }
  static Value Time(Timestamp t) { return Value(Storage(t)); }

  /// An interned string value: reports DataType::kString and behaves exactly
  /// like String(s) everywhere (equality, ordering, hashing, serialization),
  /// but copies as a 4-byte handle and compares by id against other interned
  /// values. Falls back to a plain string when the symbol table is full.
  static Value Interned(std::string_view s);
  static Value InternedSymbol(Symbol sym) { return Value(Storage(sym)); }

  DataType type() const;

  bool is_null() const { return type() == DataType::kNull; }
  bool is_numeric() const { return IsNumericType(type()); }

  /// Typed accessors; calling the wrong one aborts in debug builds.
  bool bool_value() const { return std::get<bool>(data_); }
  int64_t int64_value() const { return std::get<int64_t>(data_); }
  double double_value() const { return std::get<double>(data_); }
  const std::string& string_value() const {
    if (const Symbol* sym = std::get_if<Symbol>(&data_)) {
      return SymbolTable::Global().TextOf(sym->id);
    }
    return std::get<std::string>(data_);
  }
  Timestamp time_value() const { return std::get<Timestamp>(data_); }

  /// True when this string value is an interned symbol.
  bool is_interned() const { return std::holds_alternative<Symbol>(data_); }
  Symbol symbol() const { return std::get<Symbol>(data_); }

  /// Returns the value as a double if it is numeric (int64 widens), or a
  /// TypeError otherwise.
  StatusOr<double> AsDouble() const;

  /// Returns the value as an int64 if it is integral, or a TypeError.
  StatusOr<int64_t> AsInt64() const;

  /// Structural equality: same type and same payload. Null equals null.
  /// Int64/double cross-type numeric equality is honoured (1 == 1.0).
  bool Equals(const Value& other) const;

  /// Three-way comparison for ordering. Values of incomparable types return
  /// TypeError. Null is not comparable (TypeError) — callers that need SQL
  /// semantics should special-case null first.
  StatusOr<int> Compare(const Value& other) const;

  /// Renders the value for display/CSV ("null", "true", "3.5", "abc").
  std::string ToString() const;

  /// Hash suitable for hash-map keys (used by count distinct / group by).
  /// Numerically equal int64/double values hash identically.
  size_t Hash() const;

  bool operator==(const Value& other) const { return Equals(other); }

 private:
  // Symbol is appended last so the existing alternative indices (and thus
  // type()) are unchanged; index 6 also maps to DataType::kString.
  using Storage =
      std::variant<std::monostate, bool, int64_t, double, std::string,
                   Timestamp, Symbol>;
  explicit Value(Storage data) : data_(std::move(data)) {}
  Storage data_;
};

/// \brief Hash functor for using Value as an unordered_map key.
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

/// \brief Arithmetic over values with SQL coercion rules. Null inputs
/// produce null outputs; non-numeric inputs produce TypeError.
StatusOr<Value> Add(const Value& a, const Value& b);
StatusOr<Value> Subtract(const Value& a, const Value& b);
StatusOr<Value> Multiply(const Value& a, const Value& b);
StatusOr<Value> Divide(const Value& a, const Value& b);
StatusOr<Value> Modulo(const Value& a, const Value& b);
StatusOr<Value> Negate(const Value& a);

}  // namespace esp::stream

#endif  // ESP_STREAM_VALUE_H_
