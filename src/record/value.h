// Value type for record fields. The paper (Section 2.2) leaves value
// semantics to the UDFs; we provide the small set of types the evaluation
// workloads need: 64-bit integers, doubles, strings, and null (used for
// explicit projection via setField(..., null)).

#ifndef BLACKBOX_RECORD_VALUE_H_
#define BLACKBOX_RECORD_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

namespace blackbox {

enum class ValueType { kNull = 0, kInt, kDouble, kString };

/// A dynamically-typed field value. Small (32 bytes) and cheap to move.
class Value {
 public:
  Value() : repr_(std::monostate{}) {}
  explicit Value(int64_t v) : repr_(v) {}
  explicit Value(double v) : repr_(v) {}
  explicit Value(std::string v) : repr_(std::move(v)) {}
  static Value Null() { return Value(); }

  ValueType type() const {
    switch (repr_.index()) {
      case 0:
        return ValueType::kNull;
      case 1:
        return ValueType::kInt;
      case 2:
        return ValueType::kDouble;
      default:
        return ValueType::kString;
    }
  }

  bool is_null() const { return type() == ValueType::kNull; }

  /// Accessors. Calling the wrong accessor is a programming error; callers in
  /// the interpreter validate types first and surface Status errors.
  int64_t AsInt() const { return std::get<int64_t>(repr_); }
  double AsDouble() const { return std::get<double>(repr_); }
  const std::string& AsString() const { return std::get<std::string>(repr_); }

  /// Numeric coercion: ints widen to double; anything else is 0.0.
  double ToDouble() const {
    switch (type()) {
      case ValueType::kInt:
        return static_cast<double>(AsInt());
      case ValueType::kDouble:
        return AsDouble();
      default:
        return 0.0;
    }
  }

  /// Exact equality (type and content). Int and double never compare equal,
  /// mirroring the paper's record-equality definition over raw values.
  bool operator==(const Value& other) const { return repr_ == other.repr_; }
  bool operator!=(const Value& other) const { return !(*this == other); }
  /// Strict weak order by type tag, then content — the key order of every
  /// grouping, sort and join comparator. Among doubles, 0.0 and -0.0 are
  /// equivalent, and NaN sorts after every other double and is equivalent
  /// to any NaN.
  bool operator<(const Value& other) const;

  /// Stable 64-bit hash used for hash partitioning and join tables. Values
  /// equivalent under operator< hash alike, so one key never splits across
  /// partitions.
  uint64_t Hash() const;

  /// Serialized size in bytes under the engine's wire format; drives the
  /// network/disk byte accounting of the execution simulator.
  size_t SerializedSize() const;

  std::string ToString() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string> repr_;
};

}  // namespace blackbox

#endif  // BLACKBOX_RECORD_VALUE_H_
