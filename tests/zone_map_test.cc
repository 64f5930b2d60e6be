// Unit coverage of zone-map sketches (DESIGN.md §2.5): the edge cases the
// soundness rule lives or dies by. A sketch may only ever over-approximate —
// empty batches admit nothing, mixed and non-comparable value types widen,
// long strings open the upper bound instead of guessing, and the encode/
// decode round-trip preserves exactly the ranges consumers refute against.

#include "record/zone_map.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "record/column_view.h"
#include "record/record.h"

namespace blackbox {
namespace {

TEST(ZoneMap, EmptySketchAdmitsNothing) {
  ZoneMapSketch s;
  EXPECT_EQ(s.rows(), 0u);
  ValueRange r = s.ColumnRange(0);
  EXPECT_TRUE(r.Nothing());
  EXPECT_FALSE(r.may_null);
  // Nothing intersects nothing — not even Top.
  EXPECT_FALSE(RangesMayIntersect(r, ValueRange::Top()));
  EXPECT_FALSE(RangesMayIntersect(ValueRange::Top(), r));
}

TEST(ZoneMap, IntBoundsAndOutOfWidthPositions) {
  ZoneMapSketch s;
  s.Observe(Record({Value(int64_t{5})}));
  s.Observe(Record({Value(int64_t{-3}), Value(int64_t{7})}));
  ValueRange c0 = s.ColumnRange(0);
  EXPECT_TRUE(c0.may_int);
  EXPECT_EQ(c0.int_lo, -3);
  EXPECT_EQ(c0.int_hi, 5);
  EXPECT_FALSE(c0.may_null);
  // Column 1 was absent on the first record: present values OR null.
  ValueRange c1 = s.ColumnRange(1);
  EXPECT_TRUE(c1.may_int);
  EXPECT_TRUE(c1.may_null);
  // Positions past every record's width are null-only — the kGetField /
  // KeyOf out-of-range semantics.
  ValueRange c9 = s.ColumnRange(9);
  EXPECT_TRUE(c9.may_null);
  EXPECT_FALSE(c9.may_int || c9.may_double || c9.may_str);
}

TEST(ZoneMap, MixedTypesKeepSeparateRanges) {
  // Value equality is exact-type: Int(5) never equals Double(5.0), so the
  // ranges must stay separate per type for the join refutation to be exact.
  ZoneMapSketch ints;
  ints.Observe(Record({Value(int64_t{5})}));
  ZoneMapSketch dbls;
  dbls.Observe(Record({Value(5.0)}));
  EXPECT_FALSE(RangesMayIntersect(ints.ColumnRange(0), dbls.ColumnRange(0)));

  // A column holding int AND double AND string AND null intersects each.
  ZoneMapSketch mixed;
  mixed.Observe(Record({Value(int64_t{5})}));
  mixed.Observe(Record({Value(5.0)}));
  mixed.Observe(Record({Value("five")}));
  mixed.Observe(Record({Value::Null()}));
  ValueRange m = mixed.ColumnRange(0);
  EXPECT_TRUE(m.may_int && m.may_double && m.may_str && m.may_null);
  EXPECT_TRUE(RangesMayIntersect(m, ints.ColumnRange(0)));
  EXPECT_TRUE(RangesMayIntersect(m, dbls.ColumnRange(0)));

  // Disjoint same-type ranges refute; null∧null intersects.
  ZoneMapSketch other;
  other.Observe(Record({Value(int64_t{100})}));
  EXPECT_FALSE(RangesMayIntersect(ints.ColumnRange(0), other.ColumnRange(0)));
  ZoneMapSketch null_only;
  null_only.Observe(Record({Value::Null()}));
  EXPECT_TRUE(RangesMayIntersect(m, null_only.ColumnRange(0)));
  EXPECT_FALSE(
      RangesMayIntersect(ints.ColumnRange(0), null_only.ColumnRange(0)));
}

TEST(ZoneMap, NanWidensTheDoubleRange) {
  ZoneMapSketch s;
  s.Observe(Record({Value(1.5)}));
  s.Observe(Record({Value(std::nan(""))}));
  ValueRange r = s.ColumnRange(0);
  ASSERT_TRUE(r.may_double);
  EXPECT_EQ(r.dbl_lo, -std::numeric_limits<double>::infinity());
  EXPECT_EQ(r.dbl_hi, std::numeric_limits<double>::infinity());
  // The widened range intersects any double range — NaN can never be the
  // reason a batch is skipped.
  ZoneMapSketch probe;
  probe.Observe(Record({Value(1e300)}));
  EXPECT_TRUE(RangesMayIntersect(r, probe.ColumnRange(0)));
}

TEST(ZoneMap, LongStringsOpenTheUpperBound) {
  const std::string long_str(100, 'm');  // > kMaxTrackedStringBytes
  ZoneMapSketch s;
  s.Observe(Record({Value("banana")}));
  s.Observe(Record({Value(long_str)}));
  ValueRange r = s.ColumnRange(0);
  ASSERT_TRUE(r.may_str);
  EXPECT_TRUE(r.str_hi_open) << "a long string must open the upper bound";
  EXPECT_EQ(r.str_lo, "banana");
  EXPECT_LE(r.str_lo.size(), ZoneMapSketch::kMaxTrackedStringBytes);

  // Open-above intersects anything at or above the lower bound...
  ZoneMapSketch above;
  above.Observe(Record({Value("zzzz")}));
  EXPECT_TRUE(RangesMayIntersect(r, above.ColumnRange(0)));
  // ...but a range strictly below the lower bound still refutes.
  ZoneMapSketch below;
  below.Observe(Record({Value("aaaa")}));
  EXPECT_FALSE(RangesMayIntersect(r, below.ColumnRange(0)));

  // The truncated prefix is a valid (conservative) lower bound: a sketch of
  // only-long strings keeps the prefix as str_lo, which is <= the true min.
  ZoneMapSketch only_long;
  only_long.Observe(Record({Value(long_str)}));
  ValueRange ol = only_long.ColumnRange(0);
  EXPECT_EQ(ol.str_lo, long_str.substr(0, ZoneMapSketch::kMaxTrackedStringBytes));
  EXPECT_LE(ol.str_lo, long_str);
}

TEST(ZoneMap, StringBoundsAtTheInlineAndTrackedLimits) {
  // Lengths 15/16 straddle Value's inline-string limit and 32/33 the
  // tracked-bytes limit. ColumnView::Range folds rows by the same rules.
  for (size_t n : {15, 16, 32, 33}) {
    SCOPED_TRACE(n);
    const std::string lo(n, 'b'), hi(n, 'y');
    const bool tracked = n <= ZoneMapSketch::kMaxTrackedStringBytes;
    std::vector<Record> rows = {Record({Value(hi)}), Record({Value("m")}),
                                Record({Value(lo)})};
    ZoneMapSketch s;
    for (const Record& r : rows) s.Observe(r);
    ColumnView view(rows.data(), rows.size(), 1);
    for (const ValueRange& r : {s.ColumnRange(0), view.Range(0)}) {
      ASSERT_TRUE(r.may_str);
      EXPECT_EQ(r.str_lo, lo.substr(0, ZoneMapSketch::kMaxTrackedStringBytes));
      EXPECT_EQ(r.str_hi_open, !tracked);
      if (tracked) {
        EXPECT_EQ(r.str_hi, hi);
      }
    }
  }
}

TEST(ZoneMap, MergeIsTheUnionOfAdmittedValues) {
  ZoneMapSketch a;
  a.Observe(Record({Value(int64_t{1}), Value("apple")}));
  ZoneMapSketch b;
  b.Observe(Record({Value(int64_t{9}), Value(std::string(64, 'z'))}));
  b.Observe(Record({Value::Null(), Value("kiwi")}));
  a.Merge(b);
  EXPECT_EQ(a.rows(), 3u);
  ValueRange c0 = a.ColumnRange(0);
  EXPECT_EQ(c0.int_lo, 1);
  EXPECT_EQ(c0.int_hi, 9);
  EXPECT_TRUE(c0.may_null);
  ValueRange c1 = a.ColumnRange(1);
  EXPECT_EQ(c1.str_lo, "apple");
  EXPECT_TRUE(c1.str_hi_open) << "merge must carry the open upper bound";
}

TEST(ZoneMap, EncodeDecodeRoundTripPreservesRanges) {
  ZoneMapSketch s;
  s.Observe(Record({Value(int64_t{-7}), Value(2.25), Value("pear")}));
  s.Observe(Record({Value(int64_t{42}), Value::Null(),
                    Value(std::string(80, 'x'))}));
  std::string buf;
  s.EncodeTo(&buf);
  size_t pos = 0;
  StatusOr<ZoneMapSketch> back = ZoneMapSketch::Decode(buf.data(), buf.size(),
                                                       &pos);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(pos, buf.size());
  EXPECT_EQ(back->rows(), s.rows());
  ASSERT_EQ(back->num_columns(), s.num_columns());
  for (size_t c = 0; c < s.num_columns(); ++c) {
    ValueRange want = s.ColumnRange(c);
    ValueRange got = back->ColumnRange(c);
    EXPECT_EQ(got.may_null, want.may_null) << "column " << c;
    EXPECT_EQ(got.may_int, want.may_int);
    EXPECT_EQ(got.int_lo, want.int_lo);
    EXPECT_EQ(got.int_hi, want.int_hi);
    EXPECT_EQ(got.may_double, want.may_double);
    EXPECT_EQ(got.dbl_lo, want.dbl_lo);
    EXPECT_EQ(got.dbl_hi, want.dbl_hi);
    EXPECT_EQ(got.may_str, want.may_str);
    EXPECT_EQ(got.str_lo, want.str_lo);
    EXPECT_EQ(got.str_hi, want.str_hi);
    EXPECT_EQ(got.str_hi_open, want.str_hi_open);
  }

  // Every truncation of the encoding is Corruption, never a crash.
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    size_t p = 0;
    EXPECT_FALSE(ZoneMapSketch::Decode(buf.data(), cut, &p).ok());
  }
}

}  // namespace
}  // namespace blackbox
