// Budget-respecting spill layer of the execution engine (DESIGN.md §2.3).
//
// One MemoryLedger per simulated instance (hash partition) accounts every
// serialized byte a materialized inter-operator buffer holds in memory.
// When a reservation pushes an instance past ExecOptions::mem_budget_bytes,
// the ledger evicts registered spillables — buffers serialize their
// in-memory RecordBatch run to a temp file through the shared SpillManager,
// sorters write a sorted run — until the instance is back under budget.
// Because every buffered byte flows through Reserve/Release and every spill
// is a measured file write, the disk meter and the spill decision can never
// disagree (they are the same code path).
//
// The enforced bound: per-instance peak stays within the budget plus
// bounded slack — the record being appended, plus co-resident holders the
// quarter-budget eviction floor leaves alone (spilling those would
// degenerate into per-record run files), with a hard valve at twice the
// budget. The differential oracle asserts this as "budget + one batch of
// slack".
//
// Thread model: a MemoryLedger and everything registered with it belong to
// exactly one partition — touched either by that partition's task or by the
// serial shuffle, never concurrently (DESIGN.md §2.1). The SpillManager is
// shared across partitions and thread-safe (unique run names, the
// fault-injection byte counter, lazy directory creation).

#ifndef BLACKBOX_ENGINE_SPILL_MANAGER_H_
#define BLACKBOX_ENGINE_SPILL_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "dataflow/attr_set.h"
#include "record/record.h"
#include "record/record_batch.h"
#include "record/spill_file.h"

namespace blackbox {
namespace engine {

struct ExecStats;

// --- key helpers (shared by the executor and the sort machinery) -----------

/// The field at global position `a`; a position past the record's width
/// reads as null.
const Value& KeyField(const Record& r, dataflow::AttrId a);
/// Key extracted at the given global positions.
std::vector<Value> KeyOf(const Record& r,
                         const std::vector<dataflow::AttrId>& key);
/// The partitioning hash of r's key at `key`, read in place. Keys that are
/// equivalent under KeyLess hash alike.
uint64_t KeyHash(const Record& r, const std::vector<dataflow::AttrId>& key);
bool KeyLess(const std::vector<Value>& a, const std::vector<Value>& b);

// --- spill manager ----------------------------------------------------------

/// One spilled run on disk.
struct SpillRun {
  std::string path;
  int64_t file_bytes = 0;   // headers included; what the write meter charged
  size_t rows = 0;
  size_t payload_bytes = 0;  // sum of cached record sizes
  /// Zone-map sketch over every record in the run, kept in memory so skip
  /// decisions never open the file (the same sketch is embedded in the run
  /// header). nullopt for streamed runs (sort merges) — never skippable.
  std::optional<ZoneMapSketch> sketch;
};

/// Shared spill-file factory: owns the (lazily created) temp run directory,
/// names runs, meters writes, and injects test faults. Thread-safe.
class SpillManager {
 public:
  /// `dir_hint` "" means the system temp directory; `tag` is an optional
  /// suffix for the (always process-unique) run directory name
  /// (ExecOptions::spill_tag); `fault_after_bytes` > 0 makes every spill
  /// write fail once that many bytes were written across the whole
  /// execution (ExecOptions::spill_fault_after_bytes, test-only).
  /// `cancel` (borrowed, may be null) is the execution's CancelToken,
  /// polled on every spill write and read-back so evictions, run re-scans,
  /// drains, and merge passes unwind promptly; `cancel_after_bytes` > 0
  /// fires the token once that many payload bytes were spilled
  /// (ExecOptions::cancel_after_spill_bytes, test-only).
  SpillManager(std::string dir_hint, std::string tag,
               int64_t fault_after_bytes, CancelToken* cancel = nullptr,
               int64_t cancel_after_bytes = 0)
      : dir_hint_(std::move(dir_hint)),
        tag_(std::move(tag)),
        fault_after_bytes_(fault_after_bytes),
        cancel_(cancel),
        cancel_after_bytes_(cancel_after_bytes) {}

  /// The cancellation poll every spill-layer loop goes through: OK without
  /// a token, the token's verdict with one. Cheap enough to call per batch.
  Status CheckCancel() const {
    return cancel_ != nullptr ? cancel_->Check() : Status::OK();
  }

  /// Writes `batches` as one run; charges the written file bytes to
  /// `m->disk_bytes` (when m is non-null).
  StatusOr<SpillRun> WriteRun(const std::vector<RecordBatch>& batches,
                              ExecStats* m);

  /// A fresh unique run path (directory created on first use) for callers
  /// that stream a run through their own BatchSpillWriter (the sorter's
  /// merge passes). Thread-safe.
  StatusOr<std::string> NewRunPath();

  /// Advances the fault-injection odometer by the payload about to be
  /// written and fails if the injected budget is exhausted. Callers writing
  /// through their own writer invoke this per batch; WriteRun does it
  /// internally.
  Status CheckFault(int64_t about_to_write_bytes);

  /// Best-effort early removal of a fully consumed run (the directory
  /// destructor is the backstop).
  static void RemoveRun(const SpillRun& run);

 private:
  Status EnsureDir();

  std::string dir_hint_;
  std::string tag_;
  int64_t fault_after_bytes_;
  CancelToken* cancel_;            // borrowed; null outside cancellable runs
  int64_t cancel_after_bytes_;     // test-only mid-spill cancel trigger
  std::mutex mu_;
  std::optional<SpillDirectory> dir_;   // created on first spill
  Status dir_status_;                   // sticky failure
  int64_t written_total_ = 0;           // fault-injection odometer
};

// --- hierarchical budget pool -----------------------------------------------

/// Thread-safe parent budget for concurrent executions (DESIGN.md §2.4).
/// The serving layer carves a per-query child budget from one global
/// capacity at admission time and reclaims it on completion; each admitted
/// query's per-instance MemoryLedgers report their live-byte deltas here, so
/// the pool tracks the *measured* aggregate footprint across all queries in
/// flight. Because admission never over-carves (Carve fails instead) and
/// every per-instance ledger keeps its instance within its own budget plus
/// bounded slack, aggregate peak memory is bounded by construction —
/// violations() counts the observations where the measured aggregate still
/// exceeded the capacity, the invariant the serving bench asserts is zero.
class BudgetPool {
 public:
  explicit BudgetPool(double capacity_bytes) : capacity_(capacity_bytes) {}
  BudgetPool(const BudgetPool&) = delete;
  BudgetPool& operator=(const BudgetPool&) = delete;

  /// Carves `bytes` from the capacity for one query. OutOfRange when the
  /// remaining capacity is too small (the admission queue's signal to hold
  /// the query), InvalidArgument for a non-positive carve.
  Status Carve(double bytes);

  /// Returns a completed query's carve to the pool.
  void Reclaim(double bytes);

  /// Live-byte delta reported by a child ledger (any thread).
  void AddLive(int64_t delta);

  double capacity_bytes() const { return capacity_; }
  /// Currently carved (granted) bytes and their lifetime high-water mark.
  double carved_bytes() const;
  double carved_high_water() const;
  /// Measured aggregate in-memory bytes across every child ledger, and the
  /// lifetime high-water mark of that aggregate.
  int64_t live_bytes() const { return live_.load(std::memory_order_relaxed); }
  int64_t live_high_water() const {
    return live_high_water_.load(std::memory_order_relaxed);
  }
  /// Number of AddLive observations where the aggregate exceeded capacity.
  int64_t violations() const {
    return violations_.load(std::memory_order_relaxed);
  }

 private:
  const double capacity_;
  mutable std::mutex mu_;  // guards the carve accounting
  double carved_ = 0;
  double carved_high_water_ = 0;
  std::atomic<int64_t> live_{0};
  std::atomic<int64_t> live_high_water_{0};
  std::atomic<int64_t> violations_{0};
};

// --- memory ledger ----------------------------------------------------------

/// A budget-managed holder of in-memory serialized record bytes.
class Spillable {
 public:
  virtual ~Spillable() = default;
  /// Serialized bytes currently held in memory by this holder.
  virtual size_t spillable_mem_bytes() const = 0;
  /// Writes the in-memory portion to a spill run and releases its bytes.
  virtual Status SpillMem(ExecStats* m) = 0;
};

/// Per-instance byte ledger: the single authority on both the peak meter and
/// the spill decision. Not thread-safe (one partition, one owner) — but it
/// may report its live-byte deltas to a thread-safe parent BudgetPool, the
/// hierarchy that lets concurrent queries share one global budget
/// (DESIGN.md §2.4). The parent sees accounting only; spill decisions stay
/// per-instance against this ledger's own budget.
class MemoryLedger {
 public:
  void Init(double budget_bytes, BudgetPool* parent = nullptr) {
    budget_ = budget_bytes;
    parent_ = parent;
  }

  int Register(Spillable* s);
  void Unregister(int id);
  void Pin(int id) { entries_[id].pinned = true; }
  void Unpin(int id) { entries_[id].pinned = false; }

  /// Accounts `bytes` of new in-memory data, then evicts unpinned
  /// spillables (largest in-memory footprint first, lowest id on ties —
  /// deterministic) until the instance is back under budget or nothing
  /// evictable remains.
  Status Reserve(int64_t bytes, ExecStats* m);

  void Release(int64_t bytes) {
    live_ -= bytes;
    if (parent_ != nullptr) parent_->AddLive(-bytes);
  }

  /// Evicts without reserving — used at breaker entry so co-resident input
  /// buffers make room before a new buffer starts growing.
  Status Rebalance(ExecStats* m);

  int64_t live_bytes() const { return live_; }
  int64_t peak_bytes() const { return peak_; }
  double budget_bytes() const { return budget_; }
  /// Lifetime sum of reserved bytes; lets callers assert a code path
  /// buffered nothing (the presorted fast-path contract).
  int64_t lifetime_reserved() const { return lifetime_; }

 private:
  struct Entry {
    Spillable* s = nullptr;
    bool pinned = false;
  };
  std::map<int, Entry> entries_;
  int next_id_ = 0;
  double budget_ = 0;
  BudgetPool* parent_ = nullptr;  // borrowed; null outside the serving layer
  int64_t live_ = 0;
  int64_t peak_ = 0;
  int64_t lifetime_ = 0;
};

/// RAII pin: the buffer cannot be chosen as an eviction victim while a scan
/// or drain holds references into its in-memory batches.
class PinGuard {
 public:
  PinGuard(MemoryLedger* ledger, int id) : ledger_(ledger), id_(id) {
    ledger_->Pin(id_);
  }
  ~PinGuard() { ledger_->Unpin(id_); }
  PinGuard(const PinGuard&) = delete;
  PinGuard& operator=(const PinGuard&) = delete;

 private:
  MemoryLedger* ledger_;
  int id_;
};

/// RAII resident reservation for memory that must not be evicted (an
/// in-memory hash-join build side): counts against the ledger but is not
/// registered as a victim.
class PinnedBytes {
 public:
  explicit PinnedBytes(MemoryLedger* ledger) : ledger_(ledger) {}
  ~PinnedBytes() { ledger_->Release(total_); }
  PinnedBytes(const PinnedBytes&) = delete;
  PinnedBytes& operator=(const PinnedBytes&) = delete;

  Status Add(int64_t bytes, ExecStats* m) {
    total_ += bytes;
    return ledger_->Reserve(bytes, m);
  }

 private:
  MemoryLedger* ledger_;
  int64_t total_ = 0;
};

// --- spillable buffer --------------------------------------------------------

/// A materialized inter-operator buffer: the unit of record flow between
/// chains. Appends accumulate into in-memory batches; when the owning
/// instance runs past its budget the ledger evicts the in-memory run to
/// disk. Scans and drains yield batches in append order (spilled runs
/// first — they always hold the older prefix — then the in-memory tail).
class SpillableBuffer : public Spillable {
 public:
  SpillableBuffer(MemoryLedger* ledger, SpillManager* spill,
                  size_t batch_capacity);
  ~SpillableBuffer() override;
  SpillableBuffer(const SpillableBuffer&) = delete;
  SpillableBuffer& operator=(const SpillableBuffer&) = delete;

  /// Appends a record whose serialized size is already cached. A non-null
  /// `pool` lets the tail batch draw a recycled backing store from the
  /// caller (the shuffle feeds its drained input batches back this way —
  /// §2.2's arena-reuse contract); otherwise the buffer's own arena of
  /// spilled-and-cleared batches is used.
  Status Push(Record r, size_t serialized_bytes, ExecStats* m,
              BatchPool* pool = nullptr);
  /// Terminal write: computes the serialized size exactly once — the single
  /// point where sizes enter the cache (DESIGN.md §2.2).
  Status PushOwned(Record r, ExecStats* m) {
    size_t bytes = r.SerializedSize();
    return Push(std::move(r), bytes, m);
  }

  size_t rows() const { return total_rows_; }
  /// Total payload bytes (in-memory + spilled) — the quantity the breaker
  /// strategy decisions compare against the budget.
  size_t payload_bytes() const { return total_payload_; }

  size_t spillable_mem_bytes() const override { return mem_bytes_; }
  Status SpillMem(ExecStats* m) override;

  /// Decides whether a run or batch may be skipped given its zone-map
  /// sketch; true = skip. Soundness is the caller's: returning true asserts
  /// that no value the sketch admits can matter to the consumer.
  using SkipFn = std::function<bool(const ZoneMapSketch&)>;

  /// Non-destructive scan in append order; spilled runs are read back
  /// transiently through `pool` (each read metered). Restartable, but not
  /// legal once draining started (asserted): a scan cannot see what a drain
  /// already consumed, and its pin bookkeeping would fight the drain's.
  /// A non-null `skip` is consulted per spilled run (runs without a sketch
  /// are never skipped; a skipped run charges skipped_spill_bytes instead of
  /// disk_bytes) and per in-memory batch (charging skipped_batches).
  Status ForEachBatch(ExecStats* m, BatchPool* pool,
                      const std::function<Status(const RecordBatch&)>& fn,
                      const SkipFn* skip = nullptr);

  /// True when some pair of sketched spilled runs is disjoint on a column of
  /// `key` — evidence that the stream arrived key-clustered, so a consumer
  /// that re-scans runs per probe batch (the block hash join) will be able
  /// to refute runs. Full pairwise disjointness is deliberately NOT required:
  /// a hash shuffle interleaves producers whose slices each span the whole
  /// key range, so runs cut mid-stream overlap across producers even when
  /// the underlying table is perfectly clustered; one disjoint pair already
  /// proves narrow runs exist. Reads only the in-memory run sketches, never
  /// the files, and is independent of ExecOptions::enable_data_skipping — a
  /// strategy decision must not depend on the skipping switch, or the
  /// disk + skipped_spill_bytes invariant across that switch breaks.
  bool SpilledRunsAreKeyClustered(
      const std::vector<dataflow::AttrId>& key) const;

  /// Destructive pull-cursor in append order: each call hands out the next
  /// batch (ownership moves to the caller), releasing its ledger bytes /
  /// deleting exhausted run files as it goes. Returns false when empty.
  /// Once draining starts, Push is no longer legal.
  StatusOr<bool> NextDrained(RecordBatch* out, BatchPool* pool, ExecStats* m);

  /// Push-style drain: the NextDrained error/EOF protocol centralized. `fn`
  /// takes ownership of each batch (release it to a pool or keep it).
  Status DrainBatches(ExecStats* m, BatchPool* pool,
                      const std::function<Status(RecordBatch&&)>& fn) {
    for (;;) {
      RecordBatch b;
      StatusOr<bool> has = NextDrained(&b, pool, m);
      if (!has.ok()) return has.status();
      if (!*has) return Status::OK();
      BLACKBOX_RETURN_NOT_OK(fn(std::move(b)));
    }
  }

 private:
  MemoryLedger* ledger_;
  SpillManager* spill_;
  size_t capacity_;
  int id_;

  std::vector<SpillRun> runs_;
  std::vector<RecordBatch> mem_;
  /// Freelist of this buffer's own spilled-and-cleared batches: tail
  /// allocations after a spill reuse their backing stores (the arena-reuse
  /// contract of DESIGN.md §2.2, carried into the spill path).
  BatchPool arena_;
  size_t mem_bytes_ = 0;
  size_t total_rows_ = 0;
  size_t total_payload_ = 0;

  // Drain cursor state.
  bool draining_ = false;
  size_t drain_run_ = 0;
  size_t drain_mem_ = 0;
  std::optional<BatchSpillReader> drain_reader_;
};

// --- sorted streams ----------------------------------------------------------

/// A stream of records in non-decreasing key order.
class KeyedStream {
 public:
  virtual ~KeyedStream() = default;
  /// Advances to the next record; *done=true (with no record) at the end.
  virtual Status Next(ExecStats* m, bool* done, std::vector<Value>* key,
                      Record* rec, size_t* bytes) = 0;
};

/// External merge sorter: buffers (key, record) entries in memory, spills
/// stable-sorted runs under budget pressure, and after Finish() merges the
/// runs plus the in-memory tail into one key-ordered stream. The sort is
/// globally stable: runs hold arrival-contiguous slices, each run is
/// stable-sorted, and merges tie-break equal keys by run recency — so equal
/// keys stream in arrival order, exactly like the old in-memory std::map
/// grouping.
class ExternalSorter : public Spillable, public KeyedStream {
 public:
  /// Merge fan-in: more runs than this are first compacted in multi-pass
  /// merges (each a metered write+read), bounding open files.
  static constexpr size_t kMergeFanIn = 16;

  ExternalSorter(MemoryLedger* ledger, SpillManager* spill,
                 std::vector<dataflow::AttrId> key, size_t batch_capacity);
  ~ExternalSorter() override;
  ExternalSorter(const ExternalSorter&) = delete;
  ExternalSorter& operator=(const ExternalSorter&) = delete;

  Status Push(Record r, size_t serialized_bytes, ExecStats* m);

  /// Sorts what is still in memory, compacts runs to <= kMergeFanIn, and
  /// pins the sorter; afterwards Next() yields the merged stream.
  Status Finish(ExecStats* m);

  size_t spillable_mem_bytes() const override { return mem_bytes_; }
  Status SpillMem(ExecStats* m) override;

  Status Next(ExecStats* m, bool* done, std::vector<Value>* key, Record* rec,
              size_t* bytes) override;

 private:
  struct Entry {
    std::vector<Value> key;
    Record rec;
    size_t bytes;
  };
  /// One merge source: a spilled sorted run or the in-memory tail.
  struct Source;

  Status OpenSources(ExecStats* m);
  Status AdvanceSource(Source* src, ExecStats* m);
  StatusOr<SpillRun> MergeRunGroup(size_t begin, size_t end, ExecStats* m);

  MemoryLedger* ledger_;
  SpillManager* spill_;
  std::vector<dataflow::AttrId> key_;
  size_t capacity_;
  int id_;

  std::vector<Entry> entries_;  // arrival order until sorted at spill/finish
  size_t mem_bytes_ = 0;
  std::vector<SpillRun> runs_;  // chronological

  bool finished_ = false;
  std::vector<std::unique_ptr<Source>> sources_;
  BatchPool pool_;  // read-back arena for the merge
};

/// Pass-through stream over a buffer the plan established as presorted on
/// the key: drains the buffer in order, extracting keys on the fly and
/// verifying the claimed order (a violated claim is an Internal error, so
/// correctness never silently depends on the optimizer). Registers nothing
/// with the ledger — this is the Reduce fast path that buffers zero bytes.
class PresortedStream : public KeyedStream {
 public:
  PresortedStream(SpillableBuffer* in, std::vector<dataflow::AttrId> key,
                  BatchPool* pool)
      : in_(in), key_(std::move(key)), pool_(pool) {}

  Status Next(ExecStats* m, bool* done, std::vector<Value>* key, Record* rec,
              size_t* bytes) override;

 private:
  SpillableBuffer* in_;
  std::vector<dataflow::AttrId> key_;
  BatchPool* pool_;
  RecordBatch batch_;
  size_t idx_ = 0;
  bool have_batch_ = false;
  std::vector<Value> prev_key_;
  bool have_prev_ = false;
};

/// Groups a KeyedStream into equal-key runs of owned records.
class GroupReader {
 public:
  explicit GroupReader(KeyedStream* stream) : stream_(stream) {}

  /// Fills *key and *members with the next group; false at end of stream.
  StatusOr<bool> NextGroup(ExecStats* m, std::vector<Value>* key,
                           std::vector<Record>* members);

 private:
  KeyedStream* stream_;
  bool primed_ = false;
  bool done_ = false;
  std::vector<Value> pending_key_;
  Record pending_rec_;
  size_t pending_bytes_ = 0;
};

}  // namespace engine
}  // namespace blackbox

#endif  // BLACKBOX_ENGINE_SPILL_MANAGER_H_
