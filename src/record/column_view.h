// ColumnView: a lazy column-major view over a row-major run of records
// (DESIGN.md §2.6). Fused chain programs read their input through
// kGetInputField, which resolves here — the first read of a column
// materializes a per-field vector of borrowed Value pointers, so a narrow
// Map chain touches exactly the columns its SCA read set names and the
// engine can meter `projected_fields_skipped` as width minus materialized
// columns.
//
// The rows are either in-flight global records or bound source rows read
// through a position map (global position -> source field). A source row
// reads exactly as the global record Row() widens it to, so a scan's rows
// reach a fused chain unwidened and only the rows it emits are ever built.
//
// Lifetime contract: the view BORROWS the records and the position map. It
// must not outlive them, and the records must not be moved or mutated while
// the view is alive. The engine satisfies this by scoping one view to one
// ProcessBatch call over the runner's pending rows; a scan's pending rows
// point into the bound source DataSet, which outlives the whole execution.

#ifndef BLACKBOX_RECORD_COLUMN_VIEW_H_
#define BLACKBOX_RECORD_COLUMN_VIEW_H_

#include <cstddef>
#include <vector>

#include "record/record.h"
#include "record/zone_map.h"

namespace blackbox {

class ColumnView {
 public:
  /// Views `num_rows` in-flight records with a nominal width of `width`
  /// attribute positions (positions at or past `width` read as Null without
  /// being tracked as columns).
  ColumnView(const Record* rows, size_t num_rows, size_t width)
      : rows_(rows), num_rows_(num_rows), cols_(width) {}

  /// Views `num_rows` source rows through `positions`: global position g
  /// reads source field positions[g] (-1: none), and a field the row does
  /// not reach reads as Null. The width is positions.size().
  ColumnView(const Record* const* source_rows, size_t num_rows,
             const std::vector<int>& positions)
      : source_rows_(source_rows),
        positions_(&positions),
        num_rows_(num_rows),
        cols_(positions.size()) {}

  size_t num_rows() const { return num_rows_; }
  size_t width() const { return cols_.size(); }

  /// Field `col` of row `row`, materializing the column on first access.
  /// Positions a record does not reach (or past the view's width) are Null —
  /// the same semantics as kGetField on an out-of-range static index.
  const Value& ValueAt(size_t col, size_t row) const;

  /// The over-approximating value range of column `col`, computed straight
  /// from the rows with the same folding rules as ZoneMapSketch::Observe.
  /// Deliberately does NOT materialize the column: batch refutation must not
  /// defeat the projection accounting of the run it skips.
  ValueRange Range(size_t col) const;

  /// Row `row` as an in-flight record: a copy of the viewed in-flight row,
  /// or the source row widened to `width()` positions, Null where the map
  /// names no field the row reaches.
  Record Row(size_t row) const;

  /// Row(row).SerializedSize(), without building the record.
  size_t RowSerializedSize(size_t row) const;

  /// Number of columns materialized so far by ValueAt.
  size_t materialized_columns() const { return materialized_; }

 private:
  /// Field `col` of row `row`, read straight from the row.
  const Value& Field(size_t col, size_t row) const;

  const Record* rows_ = nullptr;                 // in-flight rows, or
  const Record* const* source_rows_ = nullptr;   // source rows read
  const std::vector<int>* positions_ = nullptr;  // through this map
  size_t num_rows_;
  // One lazily-filled pointer vector per column; empty = not materialized
  // (a materialized column always holds num_rows entries, possibly pointing
  // at the shared null).
  mutable std::vector<std::vector<const Value*>> cols_;
  mutable size_t materialized_ = 0;
};

}  // namespace blackbox

#endif  // BLACKBOX_RECORD_COLUMN_VIEW_H_
