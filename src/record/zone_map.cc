#include "record/zone_map.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

namespace blackbox {

namespace {

template <typename T>
void AppendPod(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool ReadPod(const char* data, size_t size, size_t* pos, T* out) {
  if (size - *pos < sizeof(T)) return false;
  std::memcpy(out, data + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}

bool ReadString(const char* data, size_t size, size_t* pos, std::string* out) {
  uint32_t len = 0;
  if (!ReadPod(data, size, pos, &len)) return false;
  if (size - *pos < len) return false;
  out->assign(data + *pos, len);
  *pos += len;
  return true;
}

constexpr uint8_t kHasInt = 1u << 0;
constexpr uint8_t kHasDbl = 1u << 1;
constexpr uint8_t kHasStr = 1u << 2;
constexpr uint8_t kStrMaxOpen = 1u << 3;

}  // namespace

ValueRange ValueRange::Top() {
  ValueRange r;
  r.may_null = true;
  r.may_int = true;
  r.int_lo = std::numeric_limits<int64_t>::min();
  r.int_hi = std::numeric_limits<int64_t>::max();
  r.may_double = true;
  r.dbl_lo = -std::numeric_limits<double>::infinity();
  r.dbl_hi = std::numeric_limits<double>::infinity();
  r.may_str = true;
  r.str_lo.clear();
  r.str_hi.clear();
  r.str_hi_open = true;
  return r;
}

bool RangesMayIntersect(const ValueRange& a, const ValueRange& b) {
  if (a.may_null && b.may_null) return true;
  if (a.may_int && b.may_int && a.int_lo <= b.int_hi && b.int_lo <= a.int_hi) {
    return true;
  }
  if (a.may_double && b.may_double && a.dbl_lo <= b.dbl_hi &&
      b.dbl_lo <= a.dbl_hi) {
    return true;
  }
  if (a.may_str && b.may_str) {
    bool a_below_b = !a.str_hi_open && a.str_hi < b.str_lo;
    bool b_below_a = !b.str_hi_open && b.str_hi < a.str_lo;
    if (!a_below_b && !b_below_a) return true;
  }
  return false;
}

void ZoneMapSketch::Observe(const Record& r) {
  ++rows_;
  size_t n = r.num_fields();
  if (cols_.size() < n) cols_.resize(n);
  for (size_t f = 0; f < n; ++f) {
    const Value& v = r.field(f);
    Column& c = cols_[f];
    switch (v.type()) {
      case ValueType::kNull:
        break;
      case ValueType::kInt: {
        ++c.non_null;
        int64_t x = v.AsInt();
        if (!c.has_int) {
          c.has_int = true;
          c.imin = c.imax = x;
        } else {
          c.imin = std::min(c.imin, x);
          c.imax = std::max(c.imax, x);
        }
        break;
      }
      case ValueType::kDouble: {
        ++c.non_null;
        double x = v.AsDouble();
        if (std::isnan(x)) {
          // NaN breaks ordered comparison; widen the whole double range so
          // no consumer ever refutes based on bounds that exclude it.
          c.has_dbl = true;
          c.dmin = -std::numeric_limits<double>::infinity();
          c.dmax = std::numeric_limits<double>::infinity();
          break;
        }
        if (!c.has_dbl) {
          c.has_dbl = true;
          c.dmin = c.dmax = x;
        } else {
          c.dmin = std::min(c.dmin, x);
          c.dmax = std::max(c.dmax, x);
        }
        break;
      }
      case ValueType::kString: {
        ++c.non_null;
        std::string_view s = v.AsString();
        bool truncated = s.size() > kMaxTrackedStringBytes;
        // A prefix is always <= the full string, so it stays a valid lower
        // bound even when truncated.
        if (!c.has_str) {
          c.has_str = true;
          c.smin = s.substr(0, kMaxTrackedStringBytes);
          if (truncated) {
            c.smax_open = true;
            c.smax.clear();
          } else {
            c.smax = s;
          }
        } else if (truncated) {
          std::string_view prefix = s.substr(0, kMaxTrackedStringBytes);
          if (prefix < c.smin) c.smin = prefix;
          c.smax_open = true;
          c.smax.clear();
        } else {
          if (s < c.smin) c.smin = s;
          if (!c.smax_open && s > c.smax) c.smax = s;
        }
        break;
      }
    }
  }
}

void ZoneMapSketch::Merge(const ZoneMapSketch& other) {
  rows_ += other.rows_;
  if (cols_.size() < other.cols_.size()) cols_.resize(other.cols_.size());
  for (size_t i = 0; i < other.cols_.size(); ++i) {
    const Column& o = other.cols_[i];
    Column& c = cols_[i];
    c.non_null += o.non_null;
    if (o.has_int) {
      if (!c.has_int) {
        c.has_int = true;
        c.imin = o.imin;
        c.imax = o.imax;
      } else {
        c.imin = std::min(c.imin, o.imin);
        c.imax = std::max(c.imax, o.imax);
      }
    }
    if (o.has_dbl) {
      if (!c.has_dbl) {
        c.has_dbl = true;
        c.dmin = o.dmin;
        c.dmax = o.dmax;
      } else {
        c.dmin = std::min(c.dmin, o.dmin);
        c.dmax = std::max(c.dmax, o.dmax);
      }
    }
    if (o.has_str) {
      if (!c.has_str) {
        c.has_str = true;
        c.smin = o.smin;
        c.smax = o.smax;
        c.smax_open = o.smax_open;
      } else {
        if (o.smin < c.smin) c.smin = o.smin;
        if (o.smax_open) {
          c.smax_open = true;
          c.smax.clear();
        } else if (!c.smax_open && o.smax > c.smax) {
          c.smax = o.smax;
        }
      }
    }
  }
}

ValueRange ZoneMapSketch::ColumnRange(size_t c) const {
  ValueRange r;
  if (rows_ == 0) return r;  // nothing present at all
  if (c >= cols_.size()) {
    r.may_null = true;  // every row is (implicitly) null at this position
    return r;
  }
  const Column& col = cols_[c];
  r.may_null = col.non_null < rows_;
  if (col.has_int) {
    r.may_int = true;
    r.int_lo = col.imin;
    r.int_hi = col.imax;
  }
  if (col.has_dbl) {
    r.may_double = true;
    r.dbl_lo = col.dmin;
    r.dbl_hi = col.dmax;
  }
  if (col.has_str) {
    r.may_str = true;
    r.str_lo = col.smin;
    r.str_hi = col.smax;
    r.str_hi_open = col.smax_open;
  }
  return r;
}

void ZoneMapSketch::EncodeTo(std::string* out) const {
  AppendPod<uint64_t>(out, rows_);
  AppendPod<uint32_t>(out, static_cast<uint32_t>(cols_.size()));
  for (const Column& c : cols_) {
    AppendPod<uint64_t>(out, c.non_null);
    uint8_t flags = 0;
    if (c.has_int) flags |= kHasInt;
    if (c.has_dbl) flags |= kHasDbl;
    if (c.has_str) flags |= kHasStr;
    if (c.smax_open) flags |= kStrMaxOpen;
    AppendPod<uint8_t>(out, flags);
    if (c.has_int) {
      AppendPod<int64_t>(out, c.imin);
      AppendPod<int64_t>(out, c.imax);
    }
    if (c.has_dbl) {
      AppendPod<double>(out, c.dmin);
      AppendPod<double>(out, c.dmax);
    }
    if (c.has_str) {
      AppendPod<uint32_t>(out, static_cast<uint32_t>(c.smin.size()));
      out->append(c.smin);
      AppendPod<uint32_t>(out, static_cast<uint32_t>(c.smax.size()));
      out->append(c.smax);
    }
  }
}

StatusOr<ZoneMapSketch> ZoneMapSketch::Decode(const char* data, size_t size,
                                              size_t* pos) {
  ZoneMapSketch s;
  uint32_t ncols = 0;
  if (!ReadPod(data, size, pos, &s.rows_) ||
      !ReadPod(data, size, pos, &ncols)) {
    return Status::Corruption("truncated zone-map sketch header");
  }
  // A column costs at least 9 encoded bytes; anything claiming more columns
  // than the remaining bytes could hold is garbage, not a huge allocation.
  if (ncols > (size - *pos) / 9 + 1) {
    return Status::Corruption("zone-map sketch column count implausible");
  }
  s.cols_.resize(ncols);
  for (Column& c : s.cols_) {
    uint8_t flags = 0;
    if (!ReadPod(data, size, pos, &c.non_null) ||
        !ReadPod(data, size, pos, &flags)) {
      return Status::Corruption("truncated zone-map sketch column");
    }
    c.has_int = flags & kHasInt;
    c.has_dbl = flags & kHasDbl;
    c.has_str = flags & kHasStr;
    c.smax_open = flags & kStrMaxOpen;
    if (c.has_int &&
        (!ReadPod(data, size, pos, &c.imin) ||
         !ReadPod(data, size, pos, &c.imax))) {
      return Status::Corruption("truncated zone-map sketch int bounds");
    }
    if (c.has_dbl &&
        (!ReadPod(data, size, pos, &c.dmin) ||
         !ReadPod(data, size, pos, &c.dmax))) {
      return Status::Corruption("truncated zone-map sketch double bounds");
    }
    if (c.has_str &&
        (!ReadString(data, size, pos, &c.smin) ||
         !ReadString(data, size, pos, &c.smax))) {
      return Status::Corruption("truncated zone-map sketch string bounds");
    }
  }
  return s;
}

}  // namespace blackbox
