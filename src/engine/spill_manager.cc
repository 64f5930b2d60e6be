#include "engine/spill_manager.h"

#include <algorithm>
#include <cassert>

#include "engine/executor.h"

namespace blackbox {
namespace engine {

// --- key helpers -------------------------------------------------------------

namespace {
const Value kNullField;
}  // namespace

const Value& KeyField(const Record& r, dataflow::AttrId a) {
  return a < static_cast<int>(r.num_fields()) ? r.field(a) : kNullField;
}

std::vector<Value> KeyOf(const Record& r,
                         const std::vector<dataflow::AttrId>& key) {
  std::vector<Value> k;
  k.reserve(key.size());
  for (dataflow::AttrId a : key) k.push_back(KeyField(r, a));
  return k;
}

uint64_t KeyHash(const Record& r, const std::vector<dataflow::AttrId>& key) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (dataflow::AttrId a : key) {
    h ^= KeyField(r, a).Hash();
    h *= 0x100000001B3ULL;
  }
  return h;
}

bool KeyLess(const std::vector<Value>& a, const std::vector<Value>& b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

// --- SpillManager ------------------------------------------------------------

Status SpillManager::EnsureDir() {
  if (dir_) return Status::OK();
  if (!dir_status_.ok()) return dir_status_;  // sticky: fail fast after first
  StatusOr<SpillDirectory> dir = SpillDirectory::Create(dir_hint_, tag_);
  if (!dir.ok()) {
    dir_status_ = dir.status();
    return dir_status_;
  }
  dir_ = std::move(dir).value();
  return Status::OK();
}

StatusOr<std::string> SpillManager::NewRunPath() {
  std::lock_guard<std::mutex> lock(mu_);
  BLACKBOX_RETURN_NOT_OK(EnsureDir());
  return dir_->NewRunPath();
}

Status SpillManager::CheckFault(int64_t about_to_write_bytes) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    written_total_ += about_to_write_bytes;
    // Test-only mid-spill cancellation: fire the shared token once the
    // execution has spilled past the trigger, so tests hit the cancel path
    // at a deterministic point inside an eviction or merge pass.
    if (cancel_ != nullptr && cancel_after_bytes_ > 0 &&
        written_total_ > cancel_after_bytes_) {
      cancel_->Cancel();
    }
    // Fault injection (test-only): fail once the execution has attempted to
    // spill more than the configured byte budget. The caller's writer
    // destructor removes its partial file.
    if (fault_after_bytes_ > 0 && written_total_ > fault_after_bytes_) {
      return Status::Internal(
          "injected spill fault after " + std::to_string(written_total_) +
          " bytes (ExecOptions::spill_fault_after_bytes)");
    }
  }
  return CheckCancel();
}

StatusOr<SpillRun> SpillManager::WriteRun(
    const std::vector<RecordBatch>& batches, ExecStats* m) {
  StatusOr<std::string> path = NewRunPath();
  if (!path.ok()) return path.status();
  // All batches are in memory here, so the run-level sketch is the merge of
  // the per-batch sketches, written into the header before any batch
  // payload.
  ZoneMapSketch sketch;
  for (const RecordBatch& b : batches) sketch.Merge(b.sketch());
  StatusOr<BatchSpillWriter> writer = BatchSpillWriter::Create(*path, &sketch);
  if (!writer.ok()) return writer.status();
  SpillRun run;
  run.path = *path;
  run.sketch = std::move(sketch);
  for (const RecordBatch& b : batches) {
    BLACKBOX_RETURN_NOT_OK(CheckFault(static_cast<int64_t>(b.bytes())));
    BLACKBOX_RETURN_NOT_OK(writer->WriteBatch(b));
    run.rows += b.size();
    run.payload_bytes += b.bytes();
  }
  BLACKBOX_RETURN_NOT_OK(writer->Close());
  run.file_bytes = writer->bytes_written();
  if (m) m->disk_bytes += run.file_bytes;
  return run;
}

void SpillManager::RemoveRun(const SpillRun& run) {
  std::remove(run.path.c_str());
}

// --- BudgetPool --------------------------------------------------------------

Status BudgetPool::Carve(double bytes) {
  if (bytes <= 0) {
    return Status::InvalidArgument("budget carve must be positive, got " +
                                   std::to_string(bytes));
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (carved_ + bytes > capacity_) {
    return Status::OutOfRange(
        "budget pool exhausted: carve of " + std::to_string(bytes) +
        " bytes over " + std::to_string(carved_) + " already carved exceeds " +
        std::to_string(capacity_) + " capacity");
  }
  carved_ += bytes;
  if (carved_ > carved_high_water_) carved_high_water_ = carved_;
  return Status::OK();
}

void BudgetPool::Reclaim(double bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  carved_ -= bytes;
}

void BudgetPool::AddLive(int64_t delta) {
  int64_t now = live_.fetch_add(delta, std::memory_order_relaxed) + delta;
  // Lock-free high-water mark; a stale maximum is retried, never lowered.
  int64_t hw = live_high_water_.load(std::memory_order_relaxed);
  while (now > hw &&
         !live_high_water_.compare_exchange_weak(hw, now,
                                                 std::memory_order_relaxed)) {
  }
  if (static_cast<double>(now) > capacity_) {
    violations_.fetch_add(1, std::memory_order_relaxed);
  }
}

double BudgetPool::carved_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return carved_;
}

double BudgetPool::carved_high_water() const {
  std::lock_guard<std::mutex> lock(mu_);
  return carved_high_water_;
}

// --- MemoryLedger ------------------------------------------------------------

int MemoryLedger::Register(Spillable* s) {
  int id = next_id_++;
  entries_[id] = Entry{s, /*pinned=*/false};
  return id;
}

void MemoryLedger::Unregister(int id) { entries_.erase(id); }

Status MemoryLedger::Reserve(int64_t bytes, ExecStats* m) {
  live_ += bytes;
  lifetime_ += bytes;
  if (live_ > peak_) peak_ = live_;
  if (parent_ != nullptr) parent_->AddLive(bytes);
  return Rebalance(m);
}

Status MemoryLedger::Rebalance(ExecStats* m) {
  while (static_cast<double>(live_) > budget_) {
    // Deterministic victim choice: largest in-memory footprint, lowest id
    // on ties (the map iterates ids ascending, > keeps the first maximum).
    Spillable* victim = nullptr;
    size_t victim_bytes = 0;
    for (const auto& [id, e] : entries_) {
      if (e.pinned) continue;
      size_t mb = e.s->spillable_mem_bytes();
      if (mb > victim_bytes) {
        victim_bytes = mb;
        victim = e.s;
      }
    }
    if (victim == nullptr || victim_bytes == 0) break;  // nothing evictable
    // Minimum spill granularity: when pinned residents sit near the budget,
    // evicting whatever tiny tail the victim holds would degenerate into a
    // run file per few records. Below a quarter-budget footprint, tolerate
    // the overshoot instead — unless the instance is running away (over
    // twice its budget), where correctness of the bound beats file count.
    if (static_cast<double>(victim_bytes) < budget_ / 4 &&
        static_cast<double>(live_) <= 2 * budget_) {
      break;
    }
    BLACKBOX_RETURN_NOT_OK(victim->SpillMem(m));
    if (victim->spillable_mem_bytes() >= victim_bytes) {
      return Status::Internal("spill victim did not shrink");
    }
  }
  return Status::OK();
}

// --- SpillableBuffer ---------------------------------------------------------

SpillableBuffer::SpillableBuffer(MemoryLedger* ledger, SpillManager* spill,
                                 size_t batch_capacity)
    : ledger_(ledger), spill_(spill), capacity_(batch_capacity) {
  id_ = ledger_->Register(this);
}

SpillableBuffer::~SpillableBuffer() {
  ledger_->Release(static_cast<int64_t>(mem_bytes_));
  ledger_->Unregister(id_);
  drain_reader_.reset();  // close before removing files
  for (size_t i = drain_run_; i < runs_.size(); ++i) {
    SpillManager::RemoveRun(runs_[i]);
  }
}

Status SpillableBuffer::Push(Record r, size_t serialized_bytes, ExecStats* m,
                             BatchPool* pool) {
  assert(!draining_ && "Push after drain started");
  // Reserve first: the eviction this may trigger spills the current
  // in-memory run, and the new record then starts the next one.
  Status reserved = ledger_->Reserve(static_cast<int64_t>(serialized_bytes), m);
  if (!reserved.ok()) {
    // Reserve accounts the bytes before rebalancing, so a failure mid-
    // eviction (cancellation, injected fault) leaves them counted live.
    // The record is never appended on this path — refund the reservation,
    // or the unwinding query would leak it into the parent pool forever.
    ledger_->Release(static_cast<int64_t>(serialized_bytes));
    return reserved;
  }
  if (mem_.empty() || mem_.back().size() >= capacity_) {
    mem_.push_back(pool != nullptr && pool->free_count() > 0
                       ? pool->Acquire(capacity_)
                       : arena_.Acquire(capacity_));
  }
  mem_.back().AppendWithSize(std::move(r), serialized_bytes);
  mem_bytes_ += serialized_bytes;
  total_rows_ += 1;
  total_payload_ += serialized_bytes;
  return Status::OK();
}

Status SpillableBuffer::SpillMem(ExecStats* m) {
  if (mem_.empty()) return Status::OK();
  assert(!draining_ && "evicting a buffer that is being drained");
  // Cut the eviction into runs of at most a quarter budget each instead of
  // one monolithic dump. Each run then covers a narrow arrival window, so
  // its header sketch covers a narrow key range whenever the stream is
  // key-clustered — the granularity zone-map run skipping needs to refute
  // anything (DESIGN.md §2.5). The cut points depend only on batch sizes,
  // never on the skipping switch or thread count.
  const double run_target = ledger_->budget_bytes() / 4;
  std::vector<RecordBatch> chunk;
  size_t chunk_bytes = 0;
  auto flush_chunk = [&]() -> Status {
    if (chunk.empty()) return Status::OK();
    StatusOr<SpillRun> run = spill_->WriteRun(chunk, m);
    if (!run.ok()) return run.status();
    runs_.push_back(std::move(run).value());
    // Spilled batches keep their backing stores in the arena for the next
    // in-memory run.
    for (RecordBatch& b : chunk) arena_.Release(std::move(b));
    chunk.clear();
    chunk_bytes = 0;
    return Status::OK();
  };
  for (RecordBatch& b : mem_) {
    if (!chunk.empty() &&
        static_cast<double>(chunk_bytes + b.bytes()) > run_target) {
      BLACKBOX_RETURN_NOT_OK(flush_chunk());
    }
    chunk_bytes += b.bytes();
    chunk.push_back(std::move(b));
  }
  BLACKBOX_RETURN_NOT_OK(flush_chunk());
  ledger_->Release(static_cast<int64_t>(mem_bytes_));
  mem_.clear();
  mem_bytes_ = 0;
  return Status::OK();
}

bool SpillableBuffer::SpilledRunsAreKeyClustered(
    const std::vector<dataflow::AttrId>& key) const {
  if (runs_.size() < 2 || key.empty()) return false;
  for (size_t i = 0; i < runs_.size(); ++i) {
    if (!runs_[i].sketch.has_value()) continue;
    for (size_t j = i + 1; j < runs_.size(); ++j) {
      if (!runs_[j].sketch.has_value()) continue;
      for (dataflow::AttrId k : key) {
        if (!RangesMayIntersect(
                runs_[i].sketch->ColumnRange(static_cast<size_t>(k)),
                runs_[j].sketch->ColumnRange(static_cast<size_t>(k)))) {
          return true;
        }
      }
    }
  }
  return false;
}

Status SpillableBuffer::ForEachBatch(
    ExecStats* m, BatchPool* pool,
    const std::function<Status(const RecordBatch&)>& fn, const SkipFn* skip) {
  // A scan cannot resume a drain's position (a mid-run drain cursor would
  // make it re-deliver consumed batches), and its unpin-on-exit would strip
  // the drain's pin — mixing the two is a caller bug.
  assert(!draining_ && "ForEachBatch after drain started");
  PinGuard pin(ledger_, id_);
  for (size_t ri = 0; ri < runs_.size(); ++ri) {
    BLACKBOX_RETURN_NOT_OK(spill_->CheckCancel());
    if (skip != nullptr && runs_[ri].sketch.has_value() &&
        (*skip)(*runs_[ri].sketch)) {
      // Refuted against the run-header sketch: the whole run is skipped
      // without opening the file — the read that never happened is metered
      // as skipped_spill_bytes instead of disk_bytes.
      if (m) m->skipped_spill_bytes += runs_[ri].file_bytes;
      continue;
    }
    StatusOr<BatchSpillReader> reader = BatchSpillReader::Open(runs_[ri].path);
    if (!reader.ok()) return reader.status();
    // Meter the header read too: a run read to the end then costs exactly
    // its file_bytes — the same number a refuted run credits to
    // skipped_spill_bytes, keeping disk + skipped invariant across the
    // skipping switch.
    if (m) m->disk_bytes += reader->header_bytes();
    for (;;) {
      BLACKBOX_RETURN_NOT_OK(spill_->CheckCancel());
      RecordBatch b;
      int64_t fb = 0;
      StatusOr<bool> has = reader->ReadBatch(pool, capacity_, &b, &fb);
      if (!has.ok()) return has.status();
      if (!*has) break;
      if (m) m->disk_bytes += fb;
      BLACKBOX_RETURN_NOT_OK(fn(b));
      pool->Release(std::move(b));
    }
  }
  for (size_t i = 0; i < mem_.size(); ++i) {
    BLACKBOX_RETURN_NOT_OK(spill_->CheckCancel());
    if (skip != nullptr && (*skip)(mem_[i].sketch())) {
      if (m) ++m->skipped_batches;
      continue;
    }
    BLACKBOX_RETURN_NOT_OK(fn(mem_[i]));
  }
  return Status::OK();
}

StatusOr<bool> SpillableBuffer::NextDrained(RecordBatch* out, BatchPool* pool,
                                            ExecStats* m) {
  BLACKBOX_RETURN_NOT_OK(spill_->CheckCancel());
  if (!draining_) {
    draining_ = true;
    // References into the in-memory tail may be live in the caller; the
    // buffer must not be picked as an eviction victim mid-drain.
    ledger_->Pin(id_);
  }
  while (drain_run_ < runs_.size()) {
    if (!drain_reader_) {
      StatusOr<BatchSpillReader> reader =
          BatchSpillReader::Open(runs_[drain_run_].path);
      if (!reader.ok()) return reader.status();
      drain_reader_ = std::move(reader).value();
    }
    RecordBatch b;
    int64_t fb = 0;
    StatusOr<bool> has = drain_reader_->ReadBatch(pool, capacity_, &b, &fb);
    if (!has.ok()) return has.status();
    if (*has) {
      if (m) m->disk_bytes += fb;
      *out = std::move(b);
      return true;
    }
    drain_reader_.reset();
    SpillManager::RemoveRun(runs_[drain_run_]);
    ++drain_run_;
  }
  if (drain_mem_ < mem_.size()) {
    RecordBatch b = std::move(mem_[drain_mem_]);
    ++drain_mem_;
    // The cached sizes released here ARE the meter (and the ledger refund);
    // verify the double-tracked sizes never drifted from the records.
    b.DebugCheckSizes();
    ledger_->Release(static_cast<int64_t>(b.bytes()));
    mem_bytes_ -= b.bytes();
    *out = std::move(b);
    return true;
  }
  return false;
}

// --- ExternalSorter ----------------------------------------------------------

struct ExternalSorter::Source {
  // Spilled-run source (reader set) or the in-memory tail (reader unset).
  std::optional<BatchSpillReader> reader;
  RecordBatch batch;
  size_t idx = 0;
  size_t mem_idx = 0;
  bool from_mem = false;
  bool have_batch = false;

  bool done = false;
  std::vector<Value> key;
  Record rec;
  size_t bytes = 0;
};

ExternalSorter::ExternalSorter(MemoryLedger* ledger, SpillManager* spill,
                               std::vector<dataflow::AttrId> key,
                               size_t batch_capacity)
    : ledger_(ledger),
      spill_(spill),
      key_(std::move(key)),
      capacity_(batch_capacity) {
  id_ = ledger_->Register(this);
}

ExternalSorter::~ExternalSorter() {
  ledger_->Release(static_cast<int64_t>(mem_bytes_));
  ledger_->Unregister(id_);
  sources_.clear();  // close readers before removing files
  for (const SpillRun& run : runs_) SpillManager::RemoveRun(run);
}

Status ExternalSorter::Push(Record r, size_t serialized_bytes, ExecStats* m) {
  assert(!finished_ && "Push after Finish");
  Status reserved = ledger_->Reserve(static_cast<int64_t>(serialized_bytes), m);
  if (!reserved.ok()) {
    // Same refund as SpillableBuffer::Push: the failed reservation is
    // already counted but the entry below is never added, so mem_bytes_
    // (and the destructor's release) would miss it.
    ledger_->Release(static_cast<int64_t>(serialized_bytes));
    return reserved;
  }
  Entry e;
  e.key = KeyOf(r, key_);
  e.rec = std::move(r);
  e.bytes = serialized_bytes;
  entries_.push_back(std::move(e));
  mem_bytes_ += serialized_bytes;
  return Status::OK();
}

Status ExternalSorter::SpillMem(ExecStats* m) {
  if (entries_.empty()) return Status::OK();
  assert(!finished_ && "evicting a sorter that is streaming its merge");
  // A spilled run is stable-sorted, and runs are chronological slices of the
  // arrival order — the merge's recency tie-break restores global stability.
  std::stable_sort(entries_.begin(), entries_.end(),
                   [](const Entry& a, const Entry& b) {
                     return KeyLess(a.key, b.key);
                   });
  std::vector<RecordBatch> batches;
  for (Entry& e : entries_) {
    if (batches.empty() || batches.back().size() >= capacity_) {
      batches.emplace_back(capacity_);
    }
    batches.back().AppendWithSize(std::move(e.rec), e.bytes);
  }
  StatusOr<SpillRun> run = spill_->WriteRun(batches, m);
  if (!run.ok()) return run.status();
  runs_.push_back(std::move(run).value());
  ledger_->Release(static_cast<int64_t>(mem_bytes_));
  entries_.clear();
  mem_bytes_ = 0;
  return Status::OK();
}

Status ExternalSorter::AdvanceSource(Source* src, ExecStats* m) {
  if (src->from_mem) {
    if (src->mem_idx >= entries_.size()) {
      src->done = true;
      return Status::OK();
    }
    Entry& e = entries_[src->mem_idx++];
    src->key = std::move(e.key);
    src->rec = std::move(e.rec);
    src->bytes = e.bytes;
    return Status::OK();
  }
  while (!src->have_batch || src->idx >= src->batch.size()) {
    BLACKBOX_RETURN_NOT_OK(spill_->CheckCancel());
    if (src->have_batch) {
      pool_.Release(std::move(src->batch));
      src->have_batch = false;
    }
    RecordBatch b;
    int64_t fb = 0;
    StatusOr<bool> has = src->reader->ReadBatch(&pool_, capacity_, &b, &fb);
    if (!has.ok()) return has.status();
    if (!*has) {
      src->done = true;
      return Status::OK();
    }
    if (m) m->disk_bytes += fb;
    src->batch = std::move(b);
    src->have_batch = true;
    src->idx = 0;
  }
  src->rec = std::move(src->batch.mutable_record(src->idx));
  src->bytes = src->batch.record_bytes(src->idx);
  src->key = KeyOf(src->rec, key_);
  ++src->idx;
  return Status::OK();
}

StatusOr<SpillRun> ExternalSorter::MergeRunGroup(size_t begin, size_t end,
                                                 ExecStats* m) {
  std::vector<std::unique_ptr<Source>> srcs;
  for (size_t i = begin; i < end; ++i) {
    auto src = std::make_unique<Source>();
    StatusOr<BatchSpillReader> reader = BatchSpillReader::Open(runs_[i].path);
    if (!reader.ok()) return reader.status();
    src->reader = std::move(reader).value();
    BLACKBOX_RETURN_NOT_OK(AdvanceSource(src.get(), m));
    srcs.push_back(std::move(src));
  }
  // Stream the merge straight back to disk: one output batch in flight.
  StatusOr<std::string> path = spill_->NewRunPath();
  if (!path.ok()) return path.status();
  StatusOr<BatchSpillWriter> writer = BatchSpillWriter::Create(*path);
  if (!writer.ok()) return writer.status();
  SpillRun out;
  out.path = *path;
  RecordBatch cur(capacity_);
  auto flush = [&]() -> Status {
    BLACKBOX_RETURN_NOT_OK(spill_->CheckFault(static_cast<int64_t>(cur.bytes())));
    BLACKBOX_RETURN_NOT_OK(writer->WriteBatch(cur));
    out.rows += cur.size();
    out.payload_bytes += cur.bytes();
    cur.Clear();
    return Status::OK();
  };
  for (;;) {
    Source* best = nullptr;
    for (auto& s : srcs) {
      if (s->done) continue;
      if (best == nullptr || KeyLess(s->key, best->key)) best = s.get();
      // Equal keys: the earlier source (older run) wins — srcs is iterated
      // in chronological order and KeyLess is strict, so `best` stays.
    }
    if (best == nullptr) break;
    if (cur.size() >= capacity_) BLACKBOX_RETURN_NOT_OK(flush());
    cur.AppendWithSize(std::move(best->rec), best->bytes);
    BLACKBOX_RETURN_NOT_OK(AdvanceSource(best, m));
  }
  if (cur.size() > 0) BLACKBOX_RETURN_NOT_OK(flush());
  BLACKBOX_RETURN_NOT_OK(writer->Close());
  out.file_bytes = writer->bytes_written();
  if (m) m->disk_bytes += out.file_bytes;
  return out;
}

Status ExternalSorter::Finish(ExecStats* m) {
  assert(!finished_);
  // Make room before the merge holds batches from every run: co-resident
  // buffers (and possibly this sorter itself) are evicted down to budget.
  BLACKBOX_RETURN_NOT_OK(ledger_->Rebalance(m));
  std::stable_sort(entries_.begin(), entries_.end(),
                   [](const Entry& a, const Entry& b) {
                     return KeyLess(a.key, b.key);
                   });
  ledger_->Pin(id_);
  finished_ = true;
  // Compact to at most kMergeFanIn runs, merging chronological groups so the
  // recency tie-break keeps meaning arrival order. Each pass is a real
  // external-sort pass: its writes and re-reads are metered.
  while (runs_.size() > kMergeFanIn) {
    std::vector<SpillRun> next;
    for (size_t begin = 0; begin < runs_.size(); begin += kMergeFanIn) {
      size_t end = std::min(runs_.size(), begin + kMergeFanIn);
      if (end - begin == 1) {
        next.push_back(runs_[begin]);
        continue;
      }
      StatusOr<SpillRun> merged = MergeRunGroup(begin, end, m);
      if (!merged.ok()) return merged.status();
      for (size_t i = begin; i < end; ++i) SpillManager::RemoveRun(runs_[i]);
      next.push_back(std::move(merged).value());
    }
    runs_ = std::move(next);
  }
  // Open the final sources: every run plus the in-memory tail (the newest
  // slice — highest tie-break recency).
  for (const SpillRun& run : runs_) {
    auto src = std::make_unique<Source>();
    StatusOr<BatchSpillReader> reader = BatchSpillReader::Open(run.path);
    if (!reader.ok()) return reader.status();
    src->reader = std::move(reader).value();
    BLACKBOX_RETURN_NOT_OK(AdvanceSource(src.get(), m));
    sources_.push_back(std::move(src));
  }
  auto mem_src = std::make_unique<Source>();
  mem_src->from_mem = true;
  BLACKBOX_RETURN_NOT_OK(AdvanceSource(mem_src.get(), m));
  sources_.push_back(std::move(mem_src));
  return Status::OK();
}

Status ExternalSorter::Next(ExecStats* m, bool* done, std::vector<Value>* key,
                            Record* rec, size_t* bytes) {
  assert(finished_ && "Next before Finish");
  Source* best = nullptr;
  for (auto& s : sources_) {
    if (s->done) continue;
    if (best == nullptr || KeyLess(s->key, best->key)) best = s.get();
  }
  if (best == nullptr) {
    *done = true;
    return Status::OK();
  }
  *done = false;
  *key = std::move(best->key);
  *rec = std::move(best->rec);
  *bytes = best->bytes;
  return AdvanceSource(best, m);
}

// --- PresortedStream ---------------------------------------------------------

Status PresortedStream::Next(ExecStats* m, bool* done, std::vector<Value>* key,
                             Record* rec, size_t* bytes) {
  while (!have_batch_ || idx_ >= batch_.size()) {
    if (have_batch_) {
      pool_->Release(std::move(batch_));
      have_batch_ = false;
    }
    RecordBatch b;
    StatusOr<bool> has = in_->NextDrained(&b, pool_, m);
    if (!has.ok()) return has.status();
    if (!*has) {
      *done = true;
      return Status::OK();
    }
    batch_ = std::move(b);
    have_batch_ = true;
    idx_ = 0;
  }
  *done = false;
  *rec = std::move(batch_.mutable_record(idx_));
  *bytes = batch_.record_bytes(idx_);
  *key = KeyOf(*rec, key_);
  ++idx_;
  // Correctness must never depend on the optimizer's presorted claim: a
  // violated order is a hard error, not silent wrong groups.
  if (have_prev_ && KeyLess(*key, prev_key_)) {
    return Status::Internal(
        "input claimed presorted, but the key order is violated");
  }
  prev_key_ = *key;
  have_prev_ = true;
  return Status::OK();
}

// --- GroupReader -------------------------------------------------------------

StatusOr<bool> GroupReader::NextGroup(ExecStats* m, std::vector<Value>* key,
                                      std::vector<Record>* members) {
  if (done_) return false;
  if (!primed_) {
    bool done = false;
    BLACKBOX_RETURN_NOT_OK(
        stream_->Next(m, &done, &pending_key_, &pending_rec_, &pending_bytes_));
    if (done) {
      done_ = true;
      return false;
    }
    primed_ = true;
  }
  *key = std::move(pending_key_);
  members->clear();
  members->push_back(std::move(pending_rec_));
  for (;;) {
    bool done = false;
    BLACKBOX_RETURN_NOT_OK(
        stream_->Next(m, &done, &pending_key_, &pending_rec_, &pending_bytes_));
    if (done) {
      done_ = true;
      primed_ = false;
      break;
    }
    // The stream is non-decreasing, so the next key equals the group key iff
    // it is not strictly greater.
    if (KeyLess(*key, pending_key_)) break;  // next group begins
    members->push_back(std::move(pending_rec_));
  }
  return true;
}

}  // namespace engine
}  // namespace blackbox
