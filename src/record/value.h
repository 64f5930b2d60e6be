// Value type for record fields. The paper (Section 2.2) leaves value
// semantics to the UDFs; we provide the small set of types the evaluation
// workloads need: 64-bit integers, doubles, strings, and null (used for
// explicit projection via setField(..., null)).

#ifndef BLACKBOX_RECORD_VALUE_H_
#define BLACKBOX_RECORD_VALUE_H_

#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>

namespace blackbox {

enum class ValueType { kNull = 0, kInt, kDouble, kString };

/// A dynamically-typed field value in 16 bytes. Null, an int64 or a double
/// is stored inline, and so is a string of up to kMaxInlineString bytes
/// (libstdc++'s small-string limit); a longer string lives in one owned heap
/// buffer. Each string has exactly one representation, chosen by its length.
/// Copying a long string copies its buffer; a moved-from Value is null.
class Value {
 public:
  static constexpr size_t kMaxInlineString = 15;

  Value() noexcept : r_{} {}
  explicit Value(int64_t v) noexcept : r_{.i = {kIntMeta, v}} {}
  explicit Value(double v) noexcept : r_{.d = {kDoubleMeta, v}} {}
  explicit Value(std::string_view s) : r_{} {
    s.copy(InitString(s.size()), s.size());
  }
  static Value Null() { return Value(); }
  /// The string a ++ b, written once into its final storage.
  static Value Concat(std::string_view a, std::string_view b) {
    Value v;
    char* dst = v.InitString(a.size() + b.size());
    a.copy(dst, a.size());
    b.copy(dst + a.size(), b.size());
    return v;
  }

  Value(const Value& other) : r_(other.r_) {
    if (is_heap()) CopyHeapFrom(other);
  }
  Value(Value&& other) noexcept : r_(other.r_) { other.r_ = Repr{}; }
  Value& operator=(const Value& other) {
    if (!is_heap() && !other.is_heap()) {
      r_ = other.r_;
      return *this;
    }
    return *this = Value(other);
  }
  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      FreeHeap();
      r_ = other.r_;
      other.r_ = Repr{};
    }
    return *this;
  }
  ~Value() { FreeHeap(); }

  ValueType type() const {
    return static_cast<ValueType>(r_.small.meta & kTypeMask);
  }

  bool is_null() const { return type() == ValueType::kNull; }

  /// Accessors. Calling the wrong accessor is a programming error; callers in
  /// the interpreter validate types first and surface Status errors.
  int64_t AsInt() const {
    assert(type() == ValueType::kInt);
    return r_.i.v;
  }
  double AsDouble() const {
    assert(type() == ValueType::kDouble);
    return r_.d.v;
  }
  /// A view of the string's bytes, valid until this Value changes or dies.
  std::string_view AsString() const {
    assert(type() == ValueType::kString);
    if (is_heap()) return {r_.heap.bytes, r_.heap.size};
    return {r_.small.bytes, static_cast<size_t>(r_.small.meta >> kLenShift)};
  }

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
  bool operator==(const Value& other) const;
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
  // Byte 0 of every representation is `meta`: bits 0-1 hold the ValueType,
  // bit 2 marks a heap string, and bits 3-6 hold an inline string's length.
  // Every struct begins with it, so it can be read through any member.
  static constexpr uint8_t kTypeMask = 0x3;
  static constexpr uint8_t kHeapBit = 0x4;
  static constexpr int kLenShift = 3;
  static constexpr uint8_t kIntMeta = static_cast<uint8_t>(ValueType::kInt);
  static constexpr uint8_t kDoubleMeta =
      static_cast<uint8_t>(ValueType::kDouble);
  static constexpr uint8_t kStringMeta =
      static_cast<uint8_t>(ValueType::kString);

  struct Small {
    uint8_t meta;
    char bytes[kMaxInlineString];
  };
  struct Heap {
    uint8_t meta;
    uint32_t size;
    char* bytes;
  };
  struct Int {
    uint8_t meta;
    int64_t v;
  };
  struct Double {
    uint8_t meta;
    double v;
  };
  // Value-initialisation zeroes `small`, which spans all 16 bytes: null.
  union Repr {
    Small small;
    Heap heap;
    Int i;
    Double d;
  };

  bool is_heap() const { return (r_.small.meta & kHeapBit) != 0; }

  /// Makes this null Value a string of n bytes and returns where to write
  /// them.
  char* InitString(size_t n) {
    if (n > kMaxInlineString) return InitHeap(n);
    r_.small.meta = static_cast<uint8_t>(kStringMeta | n << kLenShift);
    return r_.small.bytes;
  }
  char* InitHeap(size_t n);
  void CopyHeapFrom(const Value& other);
  void FreeHeap() {
    if (is_heap()) delete[] r_.heap.bytes;
  }

  Repr r_;
};

static_assert(sizeof(Value) == 16);

}  // namespace blackbox

#endif  // BLACKBOX_RECORD_VALUE_H_
