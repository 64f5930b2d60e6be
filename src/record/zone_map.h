// Zone-map sketches for data skipping (DESIGN.md §2.5). A ZoneMapSketch
// summarizes a run of records with, per attribute position, the set of value
// types seen plus min/max bounds per type — the classic zone map, adapted to
// the engine's dynamically-typed values. A batch builds its sketch on demand
// (RecordBatch::sketch), and spilling merges the batch sketches into a
// per-run summary, so both in-memory batches and spill-run headers carry one.
//
// The single soundness rule: a sketch may only ever OVER-approximate the
// values actually present. Every consumer (the filter-chain refuter in
// sca/refute.h, the join-run intersection test below) treats the sketch as
// "these values might be present" and skips only when a property is
// impossible for every value the sketch admits. Bounds that cannot be
// maintained exactly (long strings, NaN) widen to unbounded instead of
// guessing.

#ifndef BLACKBOX_RECORD_ZONE_MAP_H_
#define BLACKBOX_RECORD_ZONE_MAP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "record/record.h"

namespace blackbox {

/// An over-approximation of the values one attribute position may hold:
/// per-type possibility flags plus bounds for the types that have them.
/// Matches Value's exact-equality semantics — int and double ranges are kept
/// separate because Value(5) never equals Value(5.0).
struct ValueRange {
  bool may_null = false;
  bool may_int = false;
  int64_t int_lo = 0, int_hi = 0;
  bool may_double = false;
  double dbl_lo = 0, dbl_hi = 0;
  bool may_str = false;
  /// str_lo is a valid lower bound but may be a truncated prefix of the true
  /// minimum (a prefix is always <= the full string). str_hi is exact unless
  /// str_hi_open, which means "no upper bound" (set when a string longer than
  /// kMaxTrackedStringBytes was observed).
  std::string str_lo, str_hi;
  bool str_hi_open = false;

  /// The range admitting every value — what consumers use for columns they
  /// have no information about.
  static ValueRange Top();

  /// True when no value at all is admitted (empty batch / empty run).
  bool Nothing() const {
    return !may_null && !may_int && !may_double && !may_str;
  }
};

/// Could a value admitted by `a` compare equal (Value::operator==: exact type
/// and content) to a value admitted by `b`? False only when provably
/// impossible — the join-key refutation test.
bool RangesMayIntersect(const ValueRange& a, const ValueRange& b);

class ZoneMapSketch {
 public:
  /// String bounds are tracked up to this many bytes. Longer strings keep a
  /// truncated lower bound and widen the upper bound to +inf, keeping sketch
  /// memory bounded no matter the payload (textmining documents).
  static constexpr size_t kMaxTrackedStringBytes = 32;

  /// Folds one record into the sketch. Positions past the record's width
  /// count as null (mirroring kGetField / KeyOf out-of-range semantics).
  void Observe(const Record& r);

  /// Folds another sketch in; the result admits everything either admitted.
  void Merge(const ZoneMapSketch& other);

  void Clear() {
    rows_ = 0;
    cols_.clear();
  }

  uint64_t rows() const { return rows_; }
  size_t num_columns() const { return cols_.size(); }

  /// The value range of attribute position `c`. Positions the sketch never
  /// saw a value for are null-only; a zero-row sketch admits nothing.
  ValueRange ColumnRange(size_t c) const;

  /// Appends the wire encoding to *out (the spill-run header block).
  void EncodeTo(std::string* out) const;

  /// Decodes a sketch from [data, data+size), advancing *pos. Truncated or
  /// malformed input is a Corruption error.
  static StatusOr<ZoneMapSketch> Decode(const char* data, size_t size,
                                        size_t* pos);

 private:
  struct Column {
    uint64_t non_null = 0;
    bool has_int = false;
    int64_t imin = 0, imax = 0;
    bool has_dbl = false;
    double dmin = 0, dmax = 0;
    bool has_str = false;
    std::string smin, smax;
    bool smax_open = false;  // upper bound widened to +inf (long string seen)
  };

  uint64_t rows_ = 0;
  std::vector<Column> cols_;
};

}  // namespace blackbox

#endif  // BLACKBOX_RECORD_ZONE_MAP_H_
