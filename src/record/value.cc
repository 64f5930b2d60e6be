#include "record/value.h"

#include <cmath>
#include <functional>
#include <limits>

namespace blackbox {

bool Value::operator<(const Value& other) const {
  // Order first by type tag, then by content; gives a total order usable for
  // sorting in sort-based grouping and canonical data set comparison.
  // Doubles order NaN after every other double and equivalent to any NaN
  // (as PostgreSQL does): IEEE `<` is false both ways against NaN, which is
  // no strict weak order and undefined behaviour in sorts and ordered maps.
  if (repr_.index() != other.repr_.index()) {
    return repr_.index() < other.repr_.index();
  }
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
      return std::hash<std::string>{}(AsString()) ^ kSeed;
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
      return "\"" + AsString() + "\"";
  }
  return "?";
}

}  // namespace blackbox
