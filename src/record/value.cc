#include "record/value.h"

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <stdexcept>

namespace blackbox {

char* Value::InitHeap(size_t n) {
  // The wire format's string length prefix is 32 bits.
  if (n > std::numeric_limits<uint32_t>::max()) {
    throw std::length_error("Value string longer than 4 GiB");
  }
  r_.heap = {static_cast<uint8_t>(kStringMeta | kHeapBit),
             static_cast<uint32_t>(n), new char[n]};
  return r_.heap.bytes;
}

void Value::CopyHeapFrom(const Value& other) {
  char* bytes = new char[other.r_.heap.size];
  std::memcpy(bytes, other.r_.heap.bytes, other.r_.heap.size);
  r_.heap.bytes = bytes;
}

bool Value::operator==(const Value& other) const {
  // A string's length picks its representation, so equal strings have equal
  // meta bytes.
  if (r_.small.meta != other.r_.small.meta) return false;
  switch (type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kInt:
      return AsInt() == other.AsInt();
    case ValueType::kDouble:
      return AsDouble() == other.AsDouble();
    case ValueType::kString:
      return AsString() == other.AsString();
  }
  return false;
}

bool Value::operator<(const Value& other) const {
  // Order first by type tag, then by content; gives a total order usable for
  // sorting in sort-based grouping and canonical data set comparison.
  // Doubles order NaN after every other double and equivalent to any NaN
  // (as PostgreSQL does): IEEE `<` is false both ways against NaN, which is
  // no strict weak order and undefined behaviour in sorts and ordered maps.
  if (type() != other.type()) return type() < other.type();
  switch (type()) {
    case ValueType::kNull:
      return false;
    case ValueType::kInt:
      return AsInt() < other.AsInt();
    case ValueType::kDouble: {
      const double a = AsDouble(), b = other.AsDouble();
      if (std::isnan(a)) return false;
      return std::isnan(b) || a < b;
    }
    case ValueType::kString:
      return AsString() < other.AsString();
  }
  return false;
}

uint64_t Value::Hash() const {
  constexpr uint64_t kSeed = 0x9E3779B97F4A7C15ULL;
  switch (type()) {
    case ValueType::kNull:
      return kSeed;
    case ValueType::kInt: {
      uint64_t x = static_cast<uint64_t>(AsInt()) * 0xBF58476D1CE4E5B9ULL;
      return x ^ (x >> 31);
    }
    case ValueType::kDouble: {
      // Values equivalent under operator< hash alike: -0.0 as +0.0, and
      // every NaN payload as the one quiet NaN.
      double d = AsDouble();
      if (d == 0.0) d = 0.0;
      if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      __builtin_memcpy(&bits, &d, sizeof(bits));
      uint64_t x = bits * 0x94D049BB133111EBULL;
      return x ^ (x >> 29);
    }
    case ValueType::kString:
      // std::hash<std::string_view> equals std::hash<std::string> over the
      // same bytes, so partitioning is that of a std::string field.
      return std::hash<std::string_view>{}(AsString()) ^ kSeed;
  }
  return kSeed;
}

size_t Value::SerializedSize() const {
  // 1 type byte plus the payload.
  switch (type()) {
    case ValueType::kNull:
      return 1;
    case ValueType::kInt:
    case ValueType::kDouble:
      return 1 + 8;
    case ValueType::kString:
      return 1 + 4 + AsString().size();
  }
  return 1;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt:
      return std::to_string(AsInt());
    case ValueType::kDouble: {
      std::string s = std::to_string(AsDouble());
      return s;
    }
    case ValueType::kString:
      return "\"" + std::string(AsString()) + "\"";
  }
  return "?";
}

}  // namespace blackbox
