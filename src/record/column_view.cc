#include "record/column_view.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace blackbox {

namespace {
const Value& NullValue() {
  static const Value kNull;
  return kNull;
}
}  // namespace

const Value& ColumnView::Field(size_t col, size_t row) const {
  if (positions_ == nullptr) {
    const Record& r = rows_[row];
    return col < r.num_fields() ? r.field(col) : NullValue();
  }
  if (col >= positions_->size()) return NullValue();
  const int f = (*positions_)[col];
  const Record& r = *source_rows_[row];
  return f >= 0 && static_cast<size_t>(f) < r.num_fields() ? r.field(f)
                                                            : NullValue();
}

const Value& ColumnView::ValueAt(size_t col, size_t row) const {
  if (col >= cols_.size() || row >= num_rows_) return NullValue();
  std::vector<const Value*>& c = cols_[col];
  if (c.empty()) {
    c.resize(num_rows_);
    for (size_t i = 0; i < num_rows_; ++i) c[i] = &Field(col, i);
    ++materialized_;
  }
  return *c[row];
}

Record ColumnView::Row(size_t row) const {
  if (positions_ == nullptr) return rows_[row];
  std::vector<Value> fields(positions_->size());
  for (size_t g = 0; g < fields.size(); ++g) fields[g] = Field(g, row);
  return Record(std::move(fields));
}

size_t ColumnView::RowSerializedSize(size_t row) const {
  if (positions_ == nullptr) return rows_[row].SerializedSize();
  size_t total = 4;  // Record::SerializedSize's field count header
  for (size_t g = 0; g < positions_->size(); ++g) {
    total += Field(g, row).SerializedSize();
  }
  return total;
}

ValueRange ColumnView::Range(size_t col) const {
  ValueRange r;  // admits nothing until a row widens it
  bool have_int = false, have_dbl = false, have_str = false;
  for (size_t i = 0; i < num_rows_; ++i) {
    const Value& v = Field(col, i);
    switch (v.type()) {
      case ValueType::kNull:
        r.may_null = true;
        break;
      case ValueType::kInt: {
        int64_t x = v.AsInt();
        if (!have_int) {
          have_int = r.may_int = true;
          r.int_lo = r.int_hi = x;
        } else {
          r.int_lo = std::min(r.int_lo, x);
          r.int_hi = std::max(r.int_hi, x);
        }
        break;
      }
      case ValueType::kDouble: {
        double x = v.AsDouble();
        r.may_double = true;
        if (std::isnan(x)) {
          // NaN breaks ordered comparison; widen to unbounded, as the
          // sketch does, so no consumer refutes it away.
          have_dbl = true;
          r.dbl_lo = -std::numeric_limits<double>::infinity();
          r.dbl_hi = std::numeric_limits<double>::infinity();
          break;
        }
        if (!have_dbl) {
          have_dbl = true;
          r.dbl_lo = r.dbl_hi = x;
        } else {
          r.dbl_lo = std::min(r.dbl_lo, x);
          r.dbl_hi = std::max(r.dbl_hi, x);
        }
        break;
      }
      case ValueType::kString: {
        std::string_view s = v.AsString();
        bool truncated = s.size() > ZoneMapSketch::kMaxTrackedStringBytes;
        // A prefix is always <= the full string, so a truncated lower
        // bound stays valid; the upper bound widens to open. The bounds
        // are assigned only when they move.
        std::string_view lo =
            s.substr(0, ZoneMapSketch::kMaxTrackedStringBytes);
        if (!have_str) {
          have_str = r.may_str = true;
          r.str_lo = lo;
          if (truncated) {
            r.str_hi_open = true;
            r.str_hi.clear();
          } else {
            r.str_hi = s;
          }
        } else {
          if (lo < r.str_lo) r.str_lo = lo;
          if (truncated) {
            r.str_hi_open = true;
            r.str_hi.clear();
          } else if (!r.str_hi_open && s > r.str_hi) {
            r.str_hi = s;
          }
        }
        break;
      }
    }
  }
  return r;
}

}  // namespace blackbox
