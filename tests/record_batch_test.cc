// Edge cases of the streaming data plane's record layer (DESIGN.md §2.2):
// RecordBatch size caching and the capacity boundary, BatchPool arena reuse,
// BatchWriter's uniform packing, DataSet's batch-view invariants, and the
// Record::SetField past-the-end growth the scan widening relies on.

#include "record/record_batch.h"

#include <gtest/gtest.h>

#include <cmath>

#include "record/record.h"
#include "workloads/tpch.h"

namespace blackbox {
namespace {

Record IntRecord(int64_t a, int64_t b) {
  return Record({Value(a), Value(b)});
}

TEST(Record, SetFieldPastTheEndGrowsWithNulls) {
  Record r;
  r.SetField(0, Value(int64_t{1}));
  r.SetField(4, Value(std::string("x")));  // skips 1..3
  ASSERT_EQ(r.num_fields(), 5u);
  EXPECT_TRUE(r.field(1).is_null());
  EXPECT_TRUE(r.field(3).is_null());
  EXPECT_EQ(r.field(4).AsString(), "x");
  // Growing an already-grown record keeps earlier fields.
  r.SetField(6, Value(int64_t{7}));
  ASSERT_EQ(r.num_fields(), 7u);
  EXPECT_EQ(r.field(0).AsInt(), 1);
  EXPECT_TRUE(r.field(5).is_null());
}

TEST(RecordBatch, AppendCachesSerializedSizes) {
  RecordBatch b(4);
  Record r1 = IntRecord(1, 2);
  Record r2({Value(std::string("abcdef"))});
  size_t s1 = r1.SerializedSize(), s2 = r2.SerializedSize();
  b.Append(std::move(r1));
  b.Append(std::move(r2));
  EXPECT_EQ(b.record_bytes(0), s1);
  EXPECT_EQ(b.record_bytes(1), s2);
  EXPECT_EQ(b.bytes(), s1 + s2);
  EXPECT_EQ(b.bytes(), b.RecomputeBytes());
}

TEST(RecordBatch, CapacityBoundaryAndOverfill) {
  RecordBatch b(2);
  EXPECT_TRUE(b.empty());
  b.Append(IntRecord(1, 1));
  EXPECT_FALSE(b.full());
  b.Append(IntRecord(2, 2));
  EXPECT_TRUE(b.full());  // emit count == capacity: exactly full
  // full() is a flush signal, not a hard cap: one UDF call may emit past it.
  b.Append(IntRecord(3, 3));
  EXPECT_EQ(b.size(), 3u);
  EXPECT_TRUE(b.full());
  EXPECT_EQ(b.bytes(), b.RecomputeBytes());
}

TEST(RecordBatch, ClearEmptiesButKeepsCapacityWatermark) {
  RecordBatch b(8);
  b.Append(IntRecord(1, 1));
  b.Clear();
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.bytes(), 0u);
  EXPECT_EQ(b.capacity(), 8u);
}

TEST(RecordBatch, AppendWithSizeCarriesCachedSize) {
  RecordBatch src(4);
  src.Append(IntRecord(5, 6));
  RecordBatch dst(4);
  dst.AppendWithSize(Record(src.record(0)), src.record_bytes(0));
  EXPECT_EQ(dst.bytes(), src.bytes());
  EXPECT_EQ(dst.bytes(), dst.RecomputeBytes());
}

std::string Encoded(const ZoneMapSketch& s) {
  std::string out;
  s.EncodeTo(&out);
  return out;
}

/// The reference: Observe folded over every record of the batch, in order.
std::string EagerSketch(const RecordBatch& b) {
  ZoneMapSketch s;
  for (size_t i = 0; i < b.size(); ++i) s.Observe(b.record(i));
  return Encoded(s);
}

/// Records of mixed widths and types, including a string longer than the
/// tracked bound and the special doubles.
Record MixedRecord(int64_t i) {
  switch (i % 4) {
    case 0:
      return Record({Value(i), Value(-0.0)});
    case 1:
      return Record({Value(std::string(40, static_cast<char>('a' + i % 26)))});
    case 2:
      return Record({Value(i * 0.5), Value::Null(), Value(std::string("s"))});
    default:
      return Record({Value::Null(), Value(std::nan(""))});
  }
}

TEST(RecordBatch, SketchOnDemandEqualsEagerFold) {
  RecordBatch b(8);
  EXPECT_EQ(Encoded(b.sketch()), EagerSketch(b));  // empty batch
  for (int64_t i = 0; i < 3; ++i) b.Append(MixedRecord(i));
  EXPECT_EQ(Encoded(b.sketch()), EagerSketch(b));
  // Appends after a read extend the cached sketch.
  for (int64_t i = 3; i < 7; ++i) b.Append(MixedRecord(i));
  EXPECT_EQ(Encoded(b.sketch()), EagerSketch(b));
  EXPECT_EQ(b.sketch().rows(), b.size());

  b.Clear();
  EXPECT_EQ(Encoded(b.sketch()), EagerSketch(b));
  b.Append(MixedRecord(1));
  EXPECT_EQ(Encoded(b.sketch()), EagerSketch(b));

  // Pool reuse: a released batch comes back with no stale sketch.
  BatchPool pool;
  pool.Release(std::move(b));
  RecordBatch reused = pool.Acquire(8);
  reused.Append(MixedRecord(2));
  reused.Append(MixedRecord(0));
  EXPECT_EQ(Encoded(reused.sketch()), EagerSketch(reused));

  // Moves carry the records and the sketch together.
  RecordBatch moved = std::move(reused);
  EXPECT_EQ(Encoded(moved.sketch()), EagerSketch(moved));
  moved.Append(MixedRecord(3));
  EXPECT_EQ(Encoded(moved.sketch()), EagerSketch(moved));
  RecordBatch assigned(8);
  assigned.Append(MixedRecord(1));
  (void)assigned.sketch();
  assigned = std::move(moved);
  EXPECT_EQ(Encoded(assigned.sketch()), EagerSketch(assigned));
}

TEST(RecordBatchDeathTest, SketchAfterMutableRecordFailsDebugAssert) {
  RecordBatch b(4);
  b.Append(IntRecord(1, 2));
  Record taken = std::move(b.mutable_record(0));
  EXPECT_DEBUG_DEATH((void)b.sketch(), "sketch\\(\\) after mutable_record");
  b.Clear();  // the batch is reusable again
  b.Append(std::move(taken));
  EXPECT_EQ(Encoded(b.sketch()), EagerSketch(b));
}

TEST(BatchPool, RecyclesAtMatchingCapacity) {
  BatchPool pool;
  RecordBatch b = pool.Acquire(4);
  b.Append(IntRecord(1, 2));
  pool.Release(std::move(b));
  EXPECT_EQ(pool.free_count(), 1u);
  RecordBatch again = pool.Acquire(4);
  EXPECT_TRUE(again.empty());  // released batches come back cleared
  EXPECT_EQ(again.capacity(), 4u);
  EXPECT_EQ(pool.free_count(), 0u);
}

TEST(BatchPool, DropsMismatchedCapacity) {
  BatchPool pool;
  pool.Release(RecordBatch(4));
  RecordBatch b = pool.Acquire(16);  // watermark mismatch: fresh batch
  EXPECT_EQ(b.capacity(), 16u);
  EXPECT_EQ(pool.free_count(), 0u);
}

TEST(BatchWriter, DrawsRecycledBatchesFromPool) {
  // The shuffle's drain-and-rewrite loop: consumed input batches released
  // into the pool come back as the writer's new tail batches.
  BatchPool pool;
  pool.Release(RecordBatch(2));
  pool.Release(RecordBatch(2));
  std::vector<RecordBatch> run;
  BatchWriter w(&run, 2, &pool);
  for (int64_t i = 0; i < 4; ++i) w.Append(IntRecord(i, i));
  EXPECT_EQ(run.size(), 2u);
  EXPECT_EQ(pool.free_count(), 0u);  // both recycled batches were reused
  EXPECT_EQ(BatchesRows(run), 4u);
  for (const RecordBatch& b : run) EXPECT_EQ(b.bytes(), b.RecomputeBytes());
}

TEST(BatchWriter, PacksBatchesToExactCapacity) {
  std::vector<RecordBatch> run;
  BatchWriter w(&run, 3);
  for (int64_t i = 0; i < 7; ++i) w.Append(IntRecord(i, i));
  ASSERT_EQ(run.size(), 3u);
  EXPECT_EQ(run[0].size(), 3u);
  EXPECT_EQ(run[1].size(), 3u);
  EXPECT_EQ(run[2].size(), 1u);
  EXPECT_EQ(BatchesRows(run), 7u);
  size_t expect = 0;
  for (const RecordBatch& b : run) expect += b.RecomputeBytes();
  EXPECT_EQ(BatchesBytes(run), expect);
}

TEST(DataSet, BatchViewIndexingCrossesBatchBoundaries) {
  DataSet ds;
  const size_t n = RecordBatch::kDefaultCapacity * 2 + 3;
  for (size_t i = 0; i < n; ++i) {
    ds.Add(IntRecord(static_cast<int64_t>(i), 0));
  }
  ASSERT_EQ(ds.size(), n);
  ASSERT_EQ(ds.batches().size(), 3u);
  // Uniform packing: all but the last batch exactly full.
  EXPECT_EQ(ds.batches()[0].size(), RecordBatch::kDefaultCapacity);
  EXPECT_EQ(ds.batches()[1].size(), RecordBatch::kDefaultCapacity);
  EXPECT_EQ(ds.batches()[2].size(), 3u);
  EXPECT_EQ(ds.record(0).field(0).AsInt(), 0);
  EXPECT_EQ(ds.record(RecordBatch::kDefaultCapacity).field(0).AsInt(),
            static_cast<int64_t>(RecordBatch::kDefaultCapacity));
  EXPECT_EQ(ds.record(n - 1).field(0).AsInt(), static_cast<int64_t>(n - 1));
}

TEST(DataSet, AppendWithPartialTailRepacksUniformly) {
  DataSet a, b;
  const size_t half = RecordBatch::kDefaultCapacity / 2 + 1;
  for (size_t i = 0; i < half; ++i) a.Add(IntRecord(1, 0));
  for (size_t i = 0; i < half; ++i) b.Add(IntRecord(2, 0));
  a.Append(std::move(b));
  ASSERT_EQ(a.size(), 2 * half);
  // Both sources had partial tail batches; the append re-packed them.
  EXPECT_EQ(a.batches()[0].size(), RecordBatch::kDefaultCapacity);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.record(i).field(0).AsInt(), i < half ? 1 : 2);
  }
}

TEST(DataSet, SerializedBytesComesFromCachedSizes) {
  DataSet ds;
  ds.Add(IntRecord(1, 2));
  ds.Add(Record({Value(std::string("hello"))}));
  size_t expect = 0;
  for (size_t i = 0; i < ds.size(); ++i) expect += ds.record(i).SerializedSize();
  EXPECT_EQ(ds.SerializedBytes(), expect);
}

// Satellite micro-assertion for the shipping meter (ISSUE 4): on a seed
// workload's real source data, the batch-cached sizes the engine's Ship loop
// now meters from must equal the old per-record Record::SerializedSize()
// computation, record for record and in total.
TEST(RecordBatch, CachedSizesMatchOldComputationOnSeedWorkload) {
  workloads::TpchScale scale;
  scale.lineitems = 2000;
  scale.orders = 200;
  scale.customers = 50;
  scale.suppliers = 10;
  workloads::Workload w = workloads::MakeTpchQ7(scale);
  ASSERT_FALSE(w.source_data.empty());
  size_t checked = 0;
  for (const auto& [id, data] : w.source_data) {
    size_t old_total = 0;
    for (size_t i = 0; i < data.size(); ++i) {
      old_total += data.record(i).SerializedSize();  // the old meter
    }
    size_t cached_total = 0;
    for (const RecordBatch& b : data.batches()) {
      EXPECT_EQ(b.bytes(), b.RecomputeBytes()) << "source op " << id;
      cached_total += b.bytes();
      checked += b.size();
    }
    EXPECT_EQ(cached_total, old_total) << "source op " << id;
    EXPECT_EQ(data.SerializedBytes(), old_total) << "source op " << id;
  }
  EXPECT_GT(checked, 2000u);
}

}  // namespace
}  // namespace blackbox
