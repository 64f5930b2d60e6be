// RecordBatch: the unit of record flow through the streaming data plane
// (DESIGN.md §2.2). A batch is a fixed-capacity run of records with the
// serialized size of every record cached at append time, so the engine's
// byte meters (shipping, spilling, peak memory) read cached integers instead
// of re-walking value payloads per record per meter. Batches are reused
// through a BatchPool: Clear() keeps the backing vectors' capacity, so a
// pooled batch that cycles through an operator chain allocates only on its
// first trips (the arena-reuse contract the per-partition chain runners rely
// on).
//
// A batch is owned by one task at a time, like a BatchPool: the const
// sketch() fills a cache, so two threads may not read one batch's sketch
// concurrently.

#ifndef BLACKBOX_RECORD_RECORD_BATCH_H_
#define BLACKBOX_RECORD_RECORD_BATCH_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "record/record.h"
#include "record/zone_map.h"

namespace blackbox {

class RecordBatch {
 public:
  /// Default number of records per batch; chosen so a batch of typical
  /// workload records stays well under L2 while amortizing per-batch
  /// bookkeeping over enough records to be negligible.
  static constexpr size_t kDefaultCapacity = 256;

  RecordBatch() = default;
  explicit RecordBatch(size_t capacity) : capacity_(capacity) {}

  size_t capacity() const { return capacity_; }
  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  bool full() const { return records_.size() >= capacity_; }

  /// Appends a record, caching its serialized size. A batch may be filled
  /// past capacity() (one UDF call can emit several records mid-batch);
  /// full() turning true is the producer's signal to flush, not a hard cap.
  void Append(Record r) {
    size_t bytes = r.SerializedSize();
    AppendWithSize(std::move(r), bytes);
  }

  /// Appends a record whose serialized size the caller already knows (moving
  /// records between batches carries the cached size instead of re-deriving
  /// it).
  void AppendWithSize(Record r, size_t serialized_bytes) {
    records_.push_back(std::move(r));
    sizes_.push_back(serialized_bytes);
    bytes_ += serialized_bytes;
  }

  const Record& record(size_t i) const { return records_[i]; }
  /// Mutable access for move-out consumers (shipping drains batches). The
  /// batch's sketch may not be read afterwards, until the next Clear().
  Record& mutable_record(size_t i) {
    records_handed_out_ = true;
    return records_[i];
  }
  size_t record_bytes(size_t i) const { return sizes_[i]; }

  /// Total serialized bytes of the batch, from the cached per-record sizes.
  size_t bytes() const { return bytes_; }

  /// Re-derives bytes() from Record::SerializedSize — the slow path the
  /// cache replaces. Used by tests and debug assertions to prove the cached
  /// meters match the old per-record computation.
  size_t RecomputeBytes() const;

  /// Debug-build check of the double-tracking invariant: every cached size
  /// still equals its record's SerializedSize. The append path caches sizes
  /// and never revisits them, so a consumer that mutated a record in place
  /// (or a caller that passed a stale size to AppendWithSize) silently skews
  /// every downstream byte meter — this catches it at drain time, where the
  /// cached sizes are about to feed the meters. No-op in Release builds.
  void DebugCheckSizes() const;

  /// The zone-map sketch over every record appended since the last Clear
  /// (DESIGN.md §2.5), built on demand: the first call folds the records in,
  /// later calls fold only records appended since. Only skip decisions read
  /// it (spill-run headers, the in-memory batch skip of ForEachBatch,
  /// block-join probe ranges), so batches on the in-memory chain path never
  /// pay for one.
  /// Consumers must treat it as an over-approximation of the batch's
  /// contents.
  const ZoneMapSketch& sketch() const {
    // Records moved out through mutable_record() would fold in as
    // moved-from values, and the sketch would stop covering the batch.
    assert(!records_handed_out_ && "sketch() after mutable_record()");
    // sketch_.rows() counts the records already folded in.
    for (size_t i = sketch_.rows(); i < records_.size(); ++i) {
      sketch_.Observe(records_[i]);
    }
    return sketch_;
  }

  /// Empties the batch but keeps the backing vectors' capacity (arena
  /// reuse); the capacity() watermark is preserved.
  void Clear() {
    records_.clear();
    sizes_.clear();
    bytes_ = 0;
    sketch_.Clear();
    records_handed_out_ = false;
  }

 private:
  std::vector<Record> records_;
  std::vector<size_t> sizes_;  // sizes_[i] == records_[i].SerializedSize()
  size_t bytes_ = 0;
  size_t capacity_ = kDefaultCapacity;
  mutable ZoneMapSketch sketch_;  // covers records_[0, sketch_.rows())
  bool records_handed_out_ = false;
};

/// A freelist of cleared batches. Not thread-safe by design: every
/// partition task owns its own pool, matching the engine's task-local state
/// rule (DESIGN.md §2.1).
class BatchPool {
 public:
  /// Returns a cleared batch with the given capacity watermark — a recycled
  /// one (backing storage intact) when available.
  RecordBatch Acquire(size_t capacity);

  /// Clears the batch and shelves its storage for the next Acquire.
  void Release(RecordBatch batch);

  size_t free_count() const { return free_.size(); }

 private:
  std::vector<RecordBatch> free_;
};

/// Packs records into a vector of batches, filling each to exactly
/// `capacity` before starting the next — the invariant DataSet's O(1)
/// record(i) indexing and the engine's partition buffers rely on. With a
/// pool, new tail batches draw recycled backing stores instead of
/// allocating (the shuffle's drain-and-rewrite loop feeds consumed input
/// batches back through one).
class BatchWriter {
 public:
  BatchWriter(std::vector<RecordBatch>* out, size_t capacity,
              BatchPool* pool = nullptr)
      : out_(out), capacity_(capacity), pool_(pool) {}

  void Append(Record r) {
    Tail()->Append(std::move(r));
  }
  void AppendWithSize(Record r, size_t serialized_bytes) {
    Tail()->AppendWithSize(std::move(r), serialized_bytes);
  }

 private:
  RecordBatch* Tail() {
    if (out_->empty() || out_->back().size() >= capacity_) {
      out_->push_back(pool_ ? pool_->Acquire(capacity_)
                            : RecordBatch(capacity_));
    }
    return &out_->back();
  }

  std::vector<RecordBatch>* out_;
  size_t capacity_;
  BatchPool* pool_;
};

/// Total rows across a run of batches.
size_t BatchesRows(const std::vector<RecordBatch>& batches);

/// Total serialized bytes across a run of batches, from the cached sizes.
size_t BatchesBytes(const std::vector<RecordBatch>& batches);

}  // namespace blackbox

#endif  // BLACKBOX_RECORD_RECORD_BATCH_H_
