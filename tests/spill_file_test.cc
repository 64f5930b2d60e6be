// Unit coverage of the spill file format (DESIGN.md §2.3): write/read
// round-trips of uniform and final short batches, cached-size preservation
// across the round-trip, BatchPool reuse on read-back, and clean Status (no
// crash — the ASan job runs this too) on truncated files and unwritable
// spill directories.

#include "record/spill_file.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "record/record.h"
#include "record/record_batch.h"

namespace blackbox {
namespace {

Record MakeRecord(int64_t i) {
  Record r;
  r.Append(Value(i));
  r.Append(Value(static_cast<double>(i) * 0.5));
  r.Append(Value("value-" + std::to_string(i)));
  if (i % 3 == 0) r.Append(Value::Null());
  return r;
}

/// `rows` records packed into batches of `capacity` (uniform except a
/// possibly short final batch).
std::vector<RecordBatch> MakeBatches(size_t rows, size_t capacity) {
  std::vector<RecordBatch> batches;
  for (size_t i = 0; i < rows; ++i) {
    if (batches.empty() || batches.back().size() >= capacity) {
      batches.emplace_back(capacity);
    }
    batches.back().Append(MakeRecord(static_cast<int64_t>(i)));
  }
  return batches;
}

TEST(SpillFile, EncodeLengthMatchesSerializedSize) {
  for (int64_t i = 0; i < 20; ++i) {
    Record r = MakeRecord(i);
    std::string buf;
    EncodeRecord(r, &buf);
    EXPECT_EQ(buf.size(), r.SerializedSize());
    StatusOr<Record> back = DecodeRecord(buf.data(), buf.size());
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(*back, r);
  }
}

TEST(SpillFile, DecodeRejectsTrailingAndMissingBytes) {
  Record r = MakeRecord(7);
  std::string buf;
  EncodeRecord(r, &buf);
  EXPECT_EQ(DecodeRecord(buf.data(), buf.size() - 1).status().code(),
            Status::Code::kCorruption);
  buf.push_back('\0');
  EXPECT_EQ(DecodeRecord(buf.data(), buf.size()).status().code(),
            Status::Code::kCorruption);
}

TEST(SpillFile, HugeFieldCountIsCorruption) {
  // A garbled count fails on the missing bytes; it never reserves four
  // billion fields first.
  std::string buf;
  const uint32_t count = 0xFFFFFFFFu;
  buf.append(reinterpret_cast<const char*>(&count), sizeof(count));
  buf.push_back(static_cast<char>(ValueType::kNull));
  EXPECT_EQ(DecodeRecord(buf.data(), buf.size()).status().code(),
            Status::Code::kCorruption);
}

TEST(SpillFile, RoundTripUniformAndShortBatches) {
  StatusOr<SpillDirectory> dir = SpillDirectory::Create("");
  ASSERT_TRUE(dir.ok()) << dir.status().ToString();
  std::string path = dir->NewRunPath();

  // 10 records at capacity 4: two uniform batches plus a short final one.
  std::vector<RecordBatch> batches = MakeBatches(10, 4);
  ASSERT_EQ(batches.size(), 3u);
  ASSERT_EQ(batches.back().size(), 2u);

  StatusOr<BatchSpillWriter> writer = BatchSpillWriter::Create(path);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  for (const RecordBatch& b : batches) {
    ASSERT_TRUE(writer->WriteBatch(b).ok());
  }
  ASSERT_TRUE(writer->Close().ok());
  EXPECT_GT(writer->bytes_written(), 0);

  StatusOr<BatchSpillReader> reader = BatchSpillReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  BatchPool pool;
  int64_t total_read = 0;
  for (const RecordBatch& want : batches) {
    RecordBatch got;
    int64_t fb = 0;
    StatusOr<bool> has = reader->ReadBatch(&pool, 4, &got, &fb);
    ASSERT_TRUE(has.ok()) << has.status().ToString();
    ASSERT_TRUE(*has);
    total_read += fb;
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(got.bytes(), want.bytes());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got.record(i), want.record(i));
      // Cached sizes survive the round-trip without a payload re-walk...
      EXPECT_EQ(got.record_bytes(i), want.record_bytes(i));
    }
    // ...and still agree with a from-scratch recomputation.
    EXPECT_EQ(got.bytes(), got.RecomputeBytes());
    pool.Release(std::move(got));
  }
  RecordBatch extra;
  int64_t fb = 0;
  StatusOr<bool> has = reader->ReadBatch(&pool, 4, &extra, &fb);
  ASSERT_TRUE(has.ok());
  EXPECT_FALSE(*has) << "expected clean EOF after the last batch";
  // Minus the header: 8-byte magic + 4-byte (empty) sketch-block length.
  EXPECT_EQ(total_read, writer->bytes_written() - 12)
      << "read meter must cover every written payload byte";
}

TEST(SpillFile, ReadBackReusesPooledBatches) {
  StatusOr<SpillDirectory> dir = SpillDirectory::Create("");
  ASSERT_TRUE(dir.ok());
  std::string path = dir->NewRunPath();
  std::vector<RecordBatch> batches = MakeBatches(8, 4);
  StatusOr<BatchSpillWriter> writer = BatchSpillWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  for (const RecordBatch& b : batches) ASSERT_TRUE(writer->WriteBatch(b).ok());
  ASSERT_TRUE(writer->Close().ok());

  BatchPool pool;
  pool.Release(RecordBatch(4));  // one recycled backing store available
  ASSERT_EQ(pool.free_count(), 1u);
  StatusOr<BatchSpillReader> reader = BatchSpillReader::Open(path);
  ASSERT_TRUE(reader.ok());
  RecordBatch got;
  int64_t fb = 0;
  StatusOr<bool> has = reader->ReadBatch(&pool, 4, &got, &fb);
  ASSERT_TRUE(has.ok() && *has);
  EXPECT_EQ(pool.free_count(), 0u) << "reader must draw from the pool";
  pool.Release(std::move(got));
  EXPECT_EQ(pool.free_count(), 1u);
  has = reader->ReadBatch(&pool, 4, &got, &fb);
  ASSERT_TRUE(has.ok() && *has);
  EXPECT_EQ(pool.free_count(), 0u) << "released batch must be recycled";
}

TEST(SpillFile, TruncatedFileIsCorruptionNotCrash) {
  StatusOr<SpillDirectory> dir = SpillDirectory::Create("");
  ASSERT_TRUE(dir.ok());
  std::string path = dir->NewRunPath();
  std::vector<RecordBatch> batches = MakeBatches(6, 4);
  StatusOr<BatchSpillWriter> writer = BatchSpillWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  for (const RecordBatch& b : batches) ASSERT_TRUE(writer->WriteBatch(b).ok());
  ASSERT_TRUE(writer->Close().ok());

  // Chop a few bytes off the tail: the second batch is now cut mid-record.
  uintmax_t size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 3);

  StatusOr<BatchSpillReader> reader = BatchSpillReader::Open(path);
  ASSERT_TRUE(reader.ok());
  BatchPool pool;
  Status last = Status::OK();
  for (;;) {
    RecordBatch got;
    int64_t fb = 0;
    StatusOr<bool> has = reader->ReadBatch(&pool, 4, &got, &fb);
    if (!has.ok()) {
      last = has.status();
      break;
    }
    if (!*has) break;
  }
  EXPECT_EQ(last.code(), Status::Code::kCorruption) << last.ToString();
}

TEST(SpillFile, RunSketchRoundTrips) {
  StatusOr<SpillDirectory> dir = SpillDirectory::Create("");
  ASSERT_TRUE(dir.ok());
  std::string path = dir->NewRunPath();
  std::vector<RecordBatch> batches = MakeBatches(10, 4);
  ZoneMapSketch sketch;
  for (const RecordBatch& b : batches) sketch.Merge(b.sketch());
  ASSERT_EQ(sketch.rows(), 10u);

  StatusOr<BatchSpillWriter> writer = BatchSpillWriter::Create(path, &sketch);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  for (const RecordBatch& b : batches) ASSERT_TRUE(writer->WriteBatch(b).ok());
  ASSERT_TRUE(writer->Close().ok());

  StatusOr<BatchSpillReader> reader = BatchSpillReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_TRUE(reader->run_sketch().has_value());
  const ZoneMapSketch& back = *reader->run_sketch();
  EXPECT_EQ(back.rows(), sketch.rows());
  EXPECT_EQ(back.num_columns(), sketch.num_columns());
  // Column 0 held ints 0..9; the decoded range must admit exactly that.
  ValueRange c0 = back.ColumnRange(0);
  EXPECT_TRUE(c0.may_int);
  EXPECT_EQ(c0.int_lo, 0);
  EXPECT_EQ(c0.int_hi, 9);
  EXPECT_FALSE(c0.may_str);
  // Column 3 was present only on every third record → may_null.
  EXPECT_TRUE(back.ColumnRange(3).may_null);
  // Batches read back rebuild their own sketches from the decoded records.
  BatchPool pool;
  RecordBatch got;
  int64_t fb = 0;
  StatusOr<bool> has = reader->ReadBatch(&pool, 4, &got, &fb);
  ASSERT_TRUE(has.ok() && *has);
  EXPECT_EQ(got.sketch().rows(), got.size());
}

TEST(SpillFile, SketchlessRunHasNoSketch) {
  StatusOr<SpillDirectory> dir = SpillDirectory::Create("");
  ASSERT_TRUE(dir.ok());
  std::string path = dir->NewRunPath();
  StatusOr<BatchSpillWriter> writer = BatchSpillWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->WriteBatch(MakeBatches(4, 4)[0]).ok());
  ASSERT_TRUE(writer->Close().ok());
  StatusOr<BatchSpillReader> reader = BatchSpillReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE(reader->run_sketch().has_value())
      << "a streamed run must read back as unskippable";
}

TEST(SpillFile, OldFormatMagicIsCorruption) {
  // Spill files never outlive a process; the pre-sketch BBSPILL1 magic must
  // be rejected outright rather than misparsed.
  StatusOr<SpillDirectory> dir = SpillDirectory::Create("");
  ASSERT_TRUE(dir.ok());
  std::string path = dir->NewRunPath();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char magic[8] = {'B', 'B', 'S', 'P', 'I', 'L', 'L', '1'};
  std::fwrite(magic, 1, sizeof(magic), f);
  std::fclose(f);
  EXPECT_EQ(BatchSpillReader::Open(path).status().code(),
            Status::Code::kCorruption);
}

TEST(SpillFile, BadMagicIsCorruption) {
  StatusOr<SpillDirectory> dir = SpillDirectory::Create("");
  ASSERT_TRUE(dir.ok());
  std::string path = dir->NewRunPath();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("this is not a spill file", f);
  std::fclose(f);
  EXPECT_EQ(BatchSpillReader::Open(path).status().code(),
            Status::Code::kCorruption);
}

TEST(SpillFile, UnwritableTempDirIsCleanStatus) {
  // A regular file as the parent "directory" defeats even a root test
  // runner (mkdir under a file is ENOTDIR; a plain missing path would just
  // be created when running with full privileges).
  std::filesystem::path blocker =
      std::filesystem::temp_directory_path() / "blackbox-spill-blocker";
  std::FILE* f = std::fopen(blocker.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  std::string bad_parent = (blocker / "sub").string();

  StatusOr<SpillDirectory> dir = SpillDirectory::Create(bad_parent);
  EXPECT_FALSE(dir.ok());
  EXPECT_EQ(dir.status().code(), Status::Code::kInvalidArgument);

  StatusOr<BatchSpillWriter> writer =
      BatchSpillWriter::Create(bad_parent + "/run.spill");
  EXPECT_FALSE(writer.ok());
  EXPECT_EQ(writer.status().code(), Status::Code::kInvalidArgument);
  std::filesystem::remove(blocker);
}

TEST(SpillFile, DirectoryRemovesItselfWithContents) {
  std::string kept;
  {
    StatusOr<SpillDirectory> dir = SpillDirectory::Create("");
    ASSERT_TRUE(dir.ok());
    kept = dir->path();
    // Leave an unconsumed run behind; the directory must still vanish.
    std::vector<RecordBatch> batches = MakeBatches(4, 4);
    StatusOr<BatchSpillWriter> writer =
        BatchSpillWriter::Create(dir->NewRunPath());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->WriteBatch(batches[0]).ok());
    ASSERT_TRUE(writer->Close().ok());
    ASSERT_TRUE(std::filesystem::exists(kept));
  }
  EXPECT_FALSE(std::filesystem::exists(kept));
}

}  // namespace
}  // namespace blackbox
