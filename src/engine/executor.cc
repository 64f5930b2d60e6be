#include "engine/executor.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <functional>
#include <map>

#include "common/task_pool.h"
#include "engine/join_table.h"
#include "engine/spill_manager.h"
#include "interp/interp.h"
#include "record/column_view.h"
#include "record/zone_map.h"
#include "reorder/plan.h"
#include "sca/refute.h"
#include "tac/fuse.h"

namespace blackbox {
namespace engine {

using dataflow::AttrId;
using dataflow::OpKind;
using dataflow::OpProperties;
using interp::CallInputs;
using interp::FieldTranslation;
using interp::Interpreter;
using optimizer::LocalStrategy;
using optimizer::PhysicalNode;
using optimizer::ShipStrategy;

namespace {

/// One partition's materialized inter-operator buffer: a budget-aware
/// SpillableBuffer on that instance's MemoryLedger (DESIGN.md §2.3). A
/// Partitions is one such buffer per simulated instance — a pipeline
/// breaker's input or output.
using Partitions = std::vector<std::unique_ptr<SpillableBuffer>>;

/// Compacts a wide (global-layout) record onto the sink schema: the sink
/// stage every plan's root chain ends in.
Record ProjectToSinkSchema(const Record& wide,
                           const std::vector<AttrId>& sink_schema) {
  Record compact;
  for (AttrId a : sink_schema) {
    compact.Append(a < static_cast<int>(wide.num_fields()) ? wide.field(a)
                                                           : Value());
  }
  return compact;
}

/// One record-at-a-time stage of a fused chain: a streaming Map, or the
/// sink's projection onto the sink schema (op == nullptr).
struct ChainStage {
  const PhysicalNode* node = nullptr;
  const dataflow::Operator* op = nullptr;  // null: sink projection stage
  FieldTranslation translation;            // Map only
  std::vector<AttrId> sink_schema;         // sink only
  /// Batch refuter for data skipping (nullopt: the UDF cannot be soundly
  /// analyzed, or skipping is disabled). Built only after the stage vector
  /// reaches its final storage — the refuter points into `translation`.
  std::optional<sca::BatchRefuter> refuter;
};

/// Everything one chain executes per input record, decided once at chain
/// assignment: the collected stages, and — when specialization succeeded —
/// the single fused TAC program that replaces them (DESIGN.md §2.6). The
/// fused members are immovable once built: the fused refuter points into
/// `fused->fn` and `fused_translation`.
struct ChainPlan {
  std::vector<ChainStage> stages;  // bottom-up; staged fallback path
  /// Fused specialization of `stages` (nullopt: specialization off, no Map
  /// stage in the chain, or the fuser bailed — staged path runs instead).
  std::optional<tac::FusedChainProgram> fused;
  /// Identity translation for RunFusedChain: empty maps, global_width = the
  /// emitted width (sink schema size for a sink-terminated chain, else the
  /// in-flight width).
  interp::FieldTranslation fused_translation;
  /// In-flight (chain input) record width: the global record's width, and
  /// the ColumnView's column count.
  int input_width = 0;
  /// Refuter over the fused program (data skipping on fused chains). Reads
  /// are at global positions already, so it consumes chain-input ranges
  /// directly.
  std::optional<sca::BatchRefuter> fused_refuter;
};

/// Target in-memory footprint of one pending fused-chain batch: the adaptive
/// capacity divides this by the observed bytes per row (DESIGN.md §2.6), so
/// wide-record chains flush smaller batches and narrow-record chains
/// amortize the per-flush work over more rows.
constexpr size_t kAdaptiveBatchBytes = 32 * 1024;

/// The per-global-position ranges a batch sketch admits, in the layout
/// BatchRefuter::RefutesEmit consumes.
std::vector<ValueRange> SketchRanges(const ZoneMapSketch& sketch) {
  std::vector<ValueRange> cols;
  cols.reserve(sketch.num_columns());
  for (size_t c = 0; c < sketch.num_columns(); ++c) {
    cols.push_back(sketch.ColumnRange(c));
  }
  return cols;
}

/// Meters `calls` UDF calls of operator `op_id` that emitted `rows_out`
/// records: into the plan totals and into the operator's per_op entry (one
/// per flow operator in every partition task's meters).
void MeterUdf(int op_id, int64_t calls, int64_t rows_out,
              const interp::RunStats& rs, ExecStats* meters) {
  meters->udf_calls += calls;
  meters->interp_instructions += rs.instructions;
  meters->cpu_burn_units += rs.cpu_burn_units;
  ExecStats::OpMeters& m = meters->per_op[static_cast<size_t>(op_id)];
  m.udf_calls += calls;
  m.rows_out += rows_out;
  m.interp_instructions += rs.instructions;
  m.cpu_burn_units += rs.cpu_burn_units;
}

/// A CallInputs of `n` single-record inputs, built once per partition task;
/// the task reassigns its record pointers before every call.
CallInputs RecordInputs(size_t n) {
  CallInputs ci;
  ci.groups.assign(n, std::vector<const Record*>(1, nullptr));
  return ci;
}

/// Per-partition chain executor: the producer (scan, breaker, or a cut
/// chain's restreamed input) pushes its emitted records here; full batches
/// are pulled through every stage in one pass and the final stage's output
/// lands in the chain's materialized output buffer. A scan pushes pointers
/// to its bound source rows instead, read through `source_positions`
/// (global position -> source field): a fused chain views them unwidened,
/// and every other chain widens them at flush (DESIGN.md §2.2). In-flight
/// records between stages are plain vectors — their serialized sizes are
/// cached exactly once, at the terminal write into the output buffer (the
/// only place byte meters ever read them). All state — the pending buffer,
/// the ping-pong scratch buffers (cleared, never shrunk: arena reuse across
/// flushes), one Interpreter per Map stage — is owned by one partition task
/// (DESIGN.md §2.1).
class ChainRunner {
 public:
  ChainRunner(const ChainPlan* plan, size_t capacity, SpillableBuffer* out,
              ExecStats* meters, const CancelToken* cancel = nullptr,
              const std::vector<int>* source_positions = nullptr)
      : plan_(plan),
        capacity_(capacity),
        out_(out),
        cancel_(cancel),
        source_positions_(source_positions),
        meters_(meters) {
    if (source_positions_ != nullptr) {
      pending_source_.reserve(capacity);
    } else {
      pending_.reserve(capacity);
    }
    if (plan_->fused) {
      fused_interp_ = std::make_unique<Interpreter>(&plan_->fused->fn);
      fused_interp_->set_cancel(cancel_);
    } else {
      for (const ChainStage& s : plan_->stages) {
        interps_.push_back(s.op ? std::make_unique<Interpreter>(s.op->udf.get())
                                : nullptr);
        if (interps_.back()) interps_.back()->set_cancel(cancel_);
      }
    }
  }

  /// Moves a producer's emitted records into the pending buffer, flushing
  /// through the chain whenever it fills. Clears *emitted.
  Status Consume(std::vector<Record>* emitted) {
    for (Record& r : *emitted) {
      BLACKBOX_RETURN_NOT_OK(Push(std::move(r)));
    }
    emitted->clear();
    return Status::OK();
  }

  Status Push(Record r) {
    pending_.push_back(std::move(r));
    if (pending_.size() >= capacity_) return Flush();
    return Status::OK();
  }

  /// Queues one bound source row (source-row runners only). The row must
  /// outlive the runner's next flush.
  Status PushSource(const Record* row) {
    pending_source_.push_back(row);
    if (pending_source_.size() >= capacity_) return Flush();
    return Status::OK();
  }

  /// Drains the pending buffer through the chain; flushing an empty buffer
  /// is a no-op (the end-of-partition call on an exactly-full stream).
  Status Flush() {
    if (pending_.empty() && pending_source_.empty()) return Status::OK();
    BLACKBOX_RETURN_NOT_OK(ProcessBatch());
    pending_.clear();
    pending_source_.clear();
    return Status::OK();
  }

 private:
  Status ProcessBatch() {
    // Batch-boundary cancellation point: a cancelled or past-deadline query
    // stops before the next batch enters the chain, so unwind latency is
    // bounded by one batch of work. The poll is read-only — a token that
    // never fires changes no output or meter.
    if (cancel_ != nullptr) BLACKBOX_RETURN_NOT_OK(cancel_->Check());
    const ColumnView view =
        source_positions_ != nullptr
            ? ColumnView(pending_source_.data(), pending_source_.size(),
                         *source_positions_)
            : ColumnView(pending_.data(), pending_.size(),
                         static_cast<size_t>(plan_->input_width));
    // Adapt from the first flushed batch in EVERY mode, fused or staged:
    // the flush cadence decides when the terminal buffer's ledger sees
    // reserves, and under a tight budget that interleaving steers eviction —
    // so it must be a property of the chain, never of the specialization
    // switch (the §2.6 oracles compare byte meters across modes exactly).
    AdaptCapacity(view);
    if (plan_->fused) return ProcessFusedBatch(view);
    // Every other chain reads whole in-flight records: widen source rows
    // here, once per row.
    for (size_t i = 0; i < pending_source_.size(); ++i) {
      pending_.push_back(view.Row(i));
    }
    std::vector<Record>* cur = &pending_;
    size_t flip = 0;
    for (size_t si = 0; si < plan_->stages.size(); ++si) {
      const ChainStage& s = plan_->stages[si];
      if (s.refuter) {
        // Data skipping (DESIGN.md §2.5): summarize the in-flight batch
        // and try to refute this stage against it. A refuted stage
        // provably emits nothing for every record here, so the whole
        // batch — and everything downstream of it — is dropped without an
        // interpreter call. Verdicts depend only on batch content, so
        // meters stay deterministic for every thread count.
        ZoneMapSketch sk;
        for (const Record& r : *cur) sk.Observe(r);
        if (s.refuter->RefutesEmit(SketchRanges(sk))) {
          ++meters_->skipped_batches;
          return Status::OK();
        }
      }
      std::vector<Record>* next = &scratch_[flip];
      next->clear();
      if (s.op != nullptr) {
        interp::RunStats rs;
        Status st = interps_[si]->RunBatch(*cur, s.translation, next, &rs);
        const int64_t n = static_cast<int64_t>(cur->size());
        meters_->records_processed += n;
        MeterUdf(s.op->id, n, static_cast<int64_t>(next->size()), rs,
                 meters_);
        BLACKBOX_RETURN_NOT_OK(st);
      } else {
        // Sink projection stage: a field copy that runs no UDF, so it
        // is unmetered.
        for (const Record& wide : *cur) {
          next->push_back(ProjectToSinkSchema(wide, s.sink_schema));
        }
      }
      cur = next;
      flip ^= 1;
    }
    // Terminal write: the single point where serialized sizes are computed
    // and cached (PushOwned), feeding every downstream byte meter — and
    // where the owning instance's ledger may decide to spill.
    for (Record& r : *cur) {
      BLACKBOX_RETURN_NOT_OK(out_->PushOwned(std::move(r), meters_));
    }
    return Status::OK();
  }

  /// Specialized path (DESIGN.md §2.6): the whole stage pipeline is one TAC
  /// program executed per input row over a lazy ColumnView of the batch. The
  /// terminal write is the same PushOwned as the staged path, so every byte
  /// meter (network/disk/peak/skipped_spill) is identical in both modes; the
  /// CPU meters (udf_calls, interp_instructions) legitimately differ and the
  /// differential oracles never compare them across modes.
  Status ProcessFusedBatch(const ColumnView& view) {
    const size_t width = view.width();
    if (plan_->fused_refuter) {
      // One refutation per flush, with ranges computed only for the global
      // positions the fused body actually reads (everything else is Top, a
      // sound over-approximation the refuter cannot lean on). Range() folds
      // straight off the rows without materializing any column.
      std::vector<ValueRange> cols(width, ValueRange::Top());
      for (int p : plan_->fused->input_reads) {
        if (p >= 0 && static_cast<size_t>(p) < width) {
          cols[static_cast<size_t>(p)] = view.Range(static_cast<size_t>(p));
        }
      }
      if (plan_->fused_refuter->RefutesEmit(cols)) {
        ++meters_->skipped_batches;
        return Status::OK();
      }
    }
    std::vector<Record>* next = &scratch_[0];
    next->clear();
    interp::RunStats rs;
    Status st = fused_interp_->RunFusedChain(
        view, plan_->fused_translation, plan_->fused->body_start, next, &rs,
        &chain_state_);
    const int64_t n = static_cast<int64_t>(view.num_rows());
    // One fused invocation per input row. The chain is one program, so it
    // is charged to its bottom stage — a Map, as TryFuse keeps the sink
    // stage last.
    meters_->records_processed += n;
    MeterUdf(plan_->stages.front().op->id, n,
             static_cast<int64_t>(next->size()), rs, meters_);
    meters_->specialized_instructions_saved +=
        plan_->fused->static_saved_per_record * n;
    meters_->projected_fields_skipped +=
        static_cast<int64_t>(width - view.materialized_columns());
    BLACKBOX_RETURN_NOT_OK(st);
    for (Record& r : *next) {
      BLACKBOX_RETURN_NOT_OK(out_->PushOwned(std::move(r), meters_));
    }
    return Status::OK();
  }

  /// Adaptive pending capacity, set once from the first flushed batch's
  /// observed bytes per row — identical in fused and staged mode (the first
  /// flush happens at the configured capacity either way, so both modes
  /// measure the same rows and adapt to the same threshold; a source row
  /// counts at its widened size in both). Affects only the pending flush
  /// threshold — the terminal SpillableBuffer keeps the configured
  /// batch_capacity, so batch layouts downstream are untouched. A pure
  /// function of (plan, data, dop), never of thread count.
  void AdaptCapacity(const ColumnView& view) {
    if (capacity_adapted_ || view.num_rows() == 0) return;
    capacity_adapted_ = true;
    size_t total = 0;
    for (size_t i = 0; i < view.num_rows(); ++i) {
      total += view.RowSerializedSize(i);
    }
    size_t bpr = std::max<size_t>(1, total / view.num_rows());
    capacity_ = std::clamp<size_t>(kAdaptiveBatchBytes / bpr, 16, 4096);
  }

  const ChainPlan* plan_;  // never null; a chain may have no stage
  size_t capacity_;
  std::vector<Record> pending_;
  std::vector<const Record*> pending_source_;  // source-row runners only
  std::vector<Record> scratch_[2];  // ping-pong stage outputs, reused
  SpillableBuffer* out_;
  const CancelToken* cancel_;  // borrowed; null when not cancellable
  const std::vector<int>* source_positions_;  // borrowed; null: in-flight rows
  std::vector<std::unique_ptr<Interpreter>> interps_;
  std::unique_ptr<Interpreter> fused_interp_;  // set iff plan_->fused
  Interpreter::ChainState chain_state_;
  bool capacity_adapted_ = false;
  ExecStats* meters_;
};

class ExecContext {
 public:
  ExecContext(const dataflow::AnnotatedFlow& af,
              const std::map<int, const DataSet*>& sources,
              const ExecOptions& options, TaskPool* pool, ExecStats* stats)
      : af_(af),
        sources_(sources),
        options_(options),
        pool_(pool),
        stats_(stats),
        spill_(options.spill_dir, options.spill_tag,
               options.spill_fault_after_bytes, options.cancel,
               options.cancel_after_spill_bytes),
        ledgers_(static_cast<size_t>(options.dop)) {
    for (MemoryLedger& l : ledgers_) {
      l.Init(options.mem_budget_bytes, options.ledger_parent);
    }
  }

  /// Executes the chain whose top is `top`: collects the run of streaming
  /// stages, then dispatches on the chain's producer. Returns the chain's
  /// materialized output — the only materialization between this producer
  /// and the next breaker above. With fuse_chains off ("--no-chain") every
  /// chain is cut after its first stage: the cut chain's producer is its
  /// child's materialized output (Restream), and it is never specialized.
  StatusOr<Partitions> Exec(const PhysicalNode& top) {
    ChainPlan plan;
    plan.input_width = static_cast<int>(af_.global.size());
    std::vector<ChainStage>& stages = plan.stages;  // collected top-down
    const PhysicalNode* n = &top;
    while (optimizer::IsStreamingStage(af_.flow->op(n->op_id), *n)) {
      stages.push_back(MakeStage(*n));
      n = n->children[0].get();
      if (!options_.fuse_chains) break;
    }
    // Stages apply bottom-up from the producer.
    std::reverse(stages.begin(), stages.end());
    if (options_.fuse_chains && options_.enable_chain_specialization) {
      TryFuse(&plan);
    }
    if (options_.enable_data_skipping) {
      if (plan.fused) {
        // One refuter over the whole fused program; its reads are global
        // positions, so the identity translation is the right frame.
        plan.fused_refuter = sca::BatchRefuter::Make(plan.fused->fn,
                                                     plan.fused_translation);
      } else {
        // Built only now: the refuter borrows the stage's own translation,
        // so the vector must not grow (or be copied) afterwards.
        for (ChainStage& s : stages) {
          if (s.op != nullptr && s.op->udf != nullptr) {
            s.refuter = sca::BatchRefuter::Make(*s.op->udf, s.translation);
          }
        }
      }
    }
    if (!options_.fuse_chains && !stages.empty()) return Restream(*n, plan);
    const dataflow::Operator& op = af_.flow->op(n->op_id);
    switch (op.kind) {
      case OpKind::kSource:
        return Scan(*n, plan);
      case OpKind::kMap:
      case OpKind::kSink:
        break;  // always chain stages (forward-shipped by the planner)
      case OpKind::kReduce:
        return ExecReduce(*n, op, plan);
      case OpKind::kMatch:
        return ExecMatch(*n, op, plan);
      case OpKind::kCross:
        return ExecCross(*n, op, plan);
      case OpKind::kCoGroup:
        return ExecCoGroup(*n, op, plan);
    }
    return Status::Internal("unreachable operator kind");
  }

  /// Chain specialization (DESIGN.md §2.6): constant-folds the chain's
  /// stages into one fused program. Only chains with at least one Map stage
  /// are fused — fusing a bare sink projection would move an unmetered copy
  /// loop into metered interpreter instructions for zero saved work. A sink
  /// stage, when present, is always last (chains are collected top-down from
  /// the plan root); anything unexpected just leaves the staged path in
  /// place, as does a fuser bail.
  void TryFuse(ChainPlan* plan) {
    bool has_map = false;
    for (const ChainStage& s : plan->stages) has_map |= (s.op != nullptr);
    if (!has_map) return;
    std::vector<tac::FuseStage> fs;
    const std::vector<int>* sink_positions = nullptr;
    for (size_t i = 0; i < plan->stages.size(); ++i) {
      const ChainStage& s = plan->stages[i];
      if (s.op == nullptr) {
        if (i + 1 != plan->stages.size()) return;  // sink must be terminal
        sink_positions = &s.sink_schema;
        break;
      }
      if (s.op->udf == nullptr) return;
      tac::FuseStage f;
      f.fn = s.op->udf.get();
      f.input_map = s.translation.input_maps.empty()
                        ? nullptr
                        : &s.translation.input_maps[0];
      f.output_map = s.translation.output_map.empty()
                         ? nullptr
                         : &s.translation.output_map;
      fs.push_back(f);
    }
    const int width = plan->input_width;
    std::optional<tac::FusedChainProgram> fused =
        tac::FuseMapChain(fs, width, sink_positions);
    if (!fused) return;
    plan->fused = std::move(fused);
    plan->fused_translation.global_width =
        sink_positions ? static_cast<int>(sink_positions->size()) : width;
    // Exec recursion is serial (producers run their subtree to completion
    // before partition tasks start), so this is an unsynchronized counter.
    if (stats_) stats_->fused_chains++;
  }

  /// The peak-memory meter (DESIGN.md §2.3): the highest in-memory buffer
  /// footprint any single instance reached. Each instance's ledger is
  /// touched only by its own partition task or the serial shuffle, so the
  /// maximum is a pure function of (plan, data, dop, budget, mode).
  int64_t peak_bytes() const {
    int64_t peak = 0;
    for (const MemoryLedger& l : ledgers_) {
      peak = std::max(peak, l.peak_bytes());
    }
    return peak;
  }

 private:
  Partitions NewPartitions() {
    Partitions parts;
    parts.reserve(ledgers_.size());
    for (MemoryLedger& l : ledgers_) {
      parts.push_back(std::make_unique<SpillableBuffer>(
          &l, &spill_, options_.batch_capacity));
    }
    return parts;
  }

  ChainStage MakeStage(const PhysicalNode& node) {
    const dataflow::Operator& op = af_.flow->op(node.op_id);
    ChainStage s;
    s.node = &node;
    if (op.kind == OpKind::kSink) {
      const OpProperties& p = af_.of(node.op_id);
      s.sink_schema.assign(p.out_schema.begin(), p.out_schema.end());
    } else {
      s.op = &op;
      s.translation = MakeTranslation(node);
    }
    return s;
  }

  /// Builds the redirection tables for one operator occurrence: local field
  /// index -> global record position (Definition 1's α map), with concat
  /// ownership derived from the actual child subtrees of this plan.
  FieldTranslation MakeTranslation(const PhysicalNode& node) {
    const OpProperties& p = af_.of(node.op_id);
    FieldTranslation t;
    t.global_width = af_.global.size();
    t.input_maps.resize(p.in_schemas.size());
    for (size_t i = 0; i < p.in_schemas.size(); ++i) {
      t.input_maps[i].assign(p.in_schemas[i].begin(), p.in_schemas[i].end());
    }
    t.output_map.assign(p.out_schema.begin(), p.out_schema.end());
    // Extend input maps so writes of *new* attributes on copied input records
    // resolve (positions >= original input arity map to the new attrs).
    for (auto& m : t.input_maps) {
      for (size_t pos = m.size(); pos < p.out_schema.size(); ++pos) {
        m.push_back(p.out_schema[pos]);
      }
    }
    // Concat ownership: the attributes actually originating in each child
    // subtree of *this* plan (not the original flow) — reordering moves
    // attribute origins across join inputs.
    if (node.children.size() == 2) {
      t.concat_positions.resize(2);
      for (int i = 0; i < 2; ++i) {
        t.concat_positions[i] = LiveAttrs(*node.children[i]);
      }
    }
    return t;
  }

  std::vector<int> LiveAttrs(const PhysicalNode& node) {
    std::set<AttrId> acc;
    std::function<void(const PhysicalNode&)> walk = [&](const PhysicalNode& n) {
      const OpProperties& p = af_.of(n.op_id);
      for (AttrId a : p.introduced.listed()) acc.insert(a);
      for (const auto& c : n.children) walk(*c);
    };
    walk(node);
    return std::vector<int>(acc.begin(), acc.end());
  }

  /// Runs body(pi, &meters) for every partition as independent tasks on the
  /// pool. The per-partition meters are merged into stats_ in partition
  /// order and the lowest-partition error (if any) is returned, so both the
  /// outcome and the meters are independent of scheduling order.
  Status ForEachPartition(
      const std::function<Status(size_t, ExecStats*)>& body) {
    const size_t n = static_cast<size_t>(options_.dop);
    std::vector<Status> statuses(n);
    std::vector<ExecStats> meters(n);
    for (ExecStats& m : meters) {
      m.per_op.resize(static_cast<size_t>(af_.flow->num_ops()));
    }
    pool_->ParallelFor(
        n,
        [&](size_t pi) {
          // Per-task cancellation point: a partition task that starts after
          // the token fired returns immediately instead of running its whole
          // body, so wide fan-outs unwind without finishing every split.
          if (options_.cancel != nullptr) {
            statuses[pi] = options_.cancel->Check();
            if (!statuses[pi].ok()) return;
          }
          statuses[pi] = body(pi, &meters[pi]);
        },
        options_.task_priority);
    for (size_t pi = 0; pi < n; ++pi) {
      if (!statuses[pi].ok()) return statuses[pi];
    }
    if (stats_) {
      for (size_t pi = 0; pi < n; ++pi) stats_->AddCounters(meters[pi]);
    }
    return Status::OK();
  }

  StatusOr<Partitions> Scan(const PhysicalNode& node, const ChainPlan& chain) {
    auto it = sources_.find(node.op_id);
    if (it == sources_.end()) {
      return Status::InvalidArgument("no data bound for source " +
                                     af_.flow->op(node.op_id).name);
    }
    const OpProperties& p = af_.of(node.op_id);
    const DataSet& src = *it->second;
    const size_t dop = static_cast<size_t>(options_.dop);
    // Global position -> source field. A source introduces its attributes,
    // so the positions are distinct and inside the global record.
    std::vector<int> positions(af_.global.size(), -1);
    for (size_t f = 0; f < p.out_schema.size(); ++f) {
      assert(positions[p.out_schema[f]] == -1);
      positions[p.out_schema[f]] = static_cast<int>(f);
    }
    Partitions parts = NewPartitions();
    // Partition pi scans the contiguous split [pi·N/dop, (pi+1)·N/dop) —
    // the byte-range split assignment of a distributed file scan. Contiguous
    // splits preserve any physical clustering of the input (e.g. TPC-H
    // lineitem's orderkey order), which downstream batch and run-header
    // sketches inherit (DESIGN.md §2.5); a round-robin assignment would
    // interleave the whole table into every partition and make every sketch
    // full-range. The runner reads the bound rows in place: a fused chain
    // above builds only the records it emits, and any other chain widens
    // each row to the global record once, at flush.
    Status st = ForEachPartition([&](size_t pi, ExecStats* meters) -> Status {
      ChainRunner runner(&chain, options_.batch_capacity, parts[pi].get(),
                         meters, options_.cancel, &positions);
      const size_t lo = pi * src.size() / dop;
      const size_t hi = (pi + 1) * src.size() / dop;
      for (size_t i = lo; i < hi; ++i) {
        BLACKBOX_RETURN_NOT_OK(runner.PushSource(&src.record(i)));
      }
      return runner.Flush();
    });
    if (!st.ok()) return st;
    return parts;
  }

  /// Applies a shipping strategy, metering network bytes from the batches'
  /// cached record sizes. Runs on the calling thread: shuffles move records
  /// *between* partitions, so they are the serial barrier separating
  /// parallel per-partition stages. Destination buffers live on the
  /// destination instances' ledgers and spill under their budgets.
  StatusOr<Partitions> Ship(Partitions in, ShipStrategy strategy,
                            const std::vector<AttrId>& key) {
    switch (strategy) {
      case ShipStrategy::kForward:
        return in;
      case ShipStrategy::kPartitionHash: {
        ExecStats local;  // serial-phase meters, merged below
        Partitions out = NewPartitions();
        BatchPool pool;
        for (size_t from = 0; from < in.size(); ++from) {
          Status st = in[from]->DrainBatches(
              &local, &pool, [&](RecordBatch&& b) -> Status {
                // The cached sizes ARE the meter; this guards the cache
                // against ever drifting from Record::SerializedSize.
                assert(b.bytes() == b.RecomputeBytes());
                for (size_t i = 0; i < b.size(); ++i) {
                  Record& r = b.mutable_record(i);
                  size_t to = KeyHash(r, key) % options_.dop;
                  if (to != from) local.network_bytes += b.record_bytes(i);
                  // Drained input batches cycle through the pool into the
                  // destination buffers' tails: the shuffle rewrites
                  // partitions without reallocating batch backing stores.
                  BLACKBOX_RETURN_NOT_OK(out[to]->Push(
                      std::move(r), b.record_bytes(i), &local, &pool));
                }
                pool.Release(std::move(b));
                return Status::OK();
              });
          if (!st.ok()) return st;
        }
        if (stats_) stats_->AddCounters(local);
        return out;
      }
      case ShipStrategy::kBroadcast: {
        ExecStats local;
        Partitions out = NewPartitions();
        BatchPool pool;
        // Stage the gathered stream in instance 0's buffer (in partition
        // order, like a serial gather), then replicate it to every other
        // instance — each copy is resident on its own instance's ledger and
        // spills under that instance's budget.
        for (size_t from = 0; from < in.size(); ++from) {
          Status st = in[from]->DrainBatches(
              &local, &pool, [&](RecordBatch&& b) -> Status {
                for (size_t i = 0; i < b.size(); ++i) {
                  BLACKBOX_RETURN_NOT_OK(
                      out[0]->Push(std::move(b.mutable_record(i)),
                                   b.record_bytes(i), &local, &pool));
                }
                pool.Release(std::move(b));
                return Status::OK();
              });
          if (!st.ok()) return st;
        }
        int64_t staged = static_cast<int64_t>(out[0]->payload_bytes());
        if (options_.dop > 1) {
          Status st = out[0]->ForEachBatch(
              &local, &pool, [&](const RecordBatch& b) -> Status {
                for (size_t i = 0; i < b.size(); ++i) {
                  for (int to = 1; to < options_.dop; ++to) {
                    Record copy = b.record(i);
                    BLACKBOX_RETURN_NOT_OK(out[to]->Push(
                        std::move(copy), b.record_bytes(i), &local));
                  }
                }
                return Status::OK();
              });
          if (!st.ok()) return st;
          local.network_bytes += staged * (options_.dop - 1);
        }
        if (stats_) stats_->AddCounters(local);
        return out;
      }
    }
    return in;
  }

  /// One UDF call, metered. `state` is the calling task's workspace for
  /// `interp`, reused across all of that task's calls.
  static Status CallUdf(int op_id, const Interpreter& interp,
                        Interpreter::CallState& state,
                        const CallInputs& inputs, const FieldTranslation& t,
                        std::vector<Record>* out, ExecStats* meters) {
    interp::RunStats rs;
    const size_t before = out->size();
    BLACKBOX_RETURN_NOT_OK(interp.Run(inputs, t, out, &rs, &state));
    MeterUdf(op_id, 1, static_cast<int64_t>(out->size() - before), rs,
             meters);
    return Status::OK();
  }

  /// The producer of a cut chain (--no-chain): each partition of `child`'s
  /// materialized output streams through the chain's one stage. A stage is
  /// forward-shipped by definition, so no Ship runs in between.
  StatusOr<Partitions> Restream(const PhysicalNode& child,
                                const ChainPlan& chain) {
    StatusOr<Partitions> in_or = Exec(child);
    if (!in_or.ok()) return in_or.status();
    Partitions in = std::move(in_or).value();
    Partitions out = NewPartitions();
    Status st = ForEachPartition([&](size_t pi, ExecStats* meters) -> Status {
      ChainRunner runner(&chain, options_.batch_capacity, out[pi].get(),
                         meters, options_.cancel);
      BatchPool pool;
      BLACKBOX_RETURN_NOT_OK(in[pi]->DrainBatches(
          meters, &pool, [&](RecordBatch&& b) -> Status {
            for (size_t i = 0; i < b.size(); ++i) {
              BLACKBOX_RETURN_NOT_OK(
                  runner.Push(std::move(b.mutable_record(i))));
            }
            pool.Release(std::move(b));
            return Status::OK();
          }));
      return runner.Flush();
    });
    if (!st.ok()) return st;
    return out;
  }

  /// Builds the key-ordered stream of one partition's input: the external
  /// sorter by default, or the zero-buffering pass-through when the plan
  /// established the input as presorted on the key — the fast path is
  /// decided here, next to the spill machinery, not by the caller.
  StatusOr<std::unique_ptr<KeyedStream>> MakeKeyedStream(
      size_t pi, SpillableBuffer* in, const std::vector<AttrId>& key,
      bool presorted, BatchPool* pool, ExecStats* m) {
    if (presorted) {
      return std::unique_ptr<KeyedStream>(
          std::make_unique<PresortedStream>(in, key, pool));
    }
    auto sorter = std::make_unique<ExternalSorter>(&ledgers_[pi], &spill_, key,
                                                   options_.batch_capacity);
    BLACKBOX_RETURN_NOT_OK(
        in->DrainBatches(m, pool, [&](RecordBatch&& b) -> Status {
          for (size_t i = 0; i < b.size(); ++i) {
            BLACKBOX_RETURN_NOT_OK(sorter->Push(std::move(b.mutable_record(i)),
                                                b.record_bytes(i), m));
          }
          pool->Release(std::move(b));
          return Status::OK();
        }));
    BLACKBOX_RETURN_NOT_OK(sorter->Finish(m));
    return std::unique_ptr<KeyedStream>(std::move(sorter));
  }

  /// One sort-group pass over `in`, calling the UDF once per key group.
  /// Shared by the plain Reduce, the combiner's pre-aggregation pass, and
  /// the combiner's post-shuffle pass. Emitted records stream through the
  /// chain `stages` (empty for the pre-aggregation pass). With `presorted`
  /// the input streams its groups directly — no sort buffer, no spill, zero
  /// bytes registered with the ledger (asserted).
  Status SortGroupPass(Partitions* in, const dataflow::Operator& op,
                       const std::vector<AttrId>& key,
                       const FieldTranslation& t, bool presorted,
                       const ChainPlan& chain, Partitions* out) {
    return ForEachPartition([&](size_t pi, ExecStats* meters) -> Status {
      Interpreter interp(op.udf.get());
      Interpreter::CallState state;
      ChainRunner runner(&chain, options_.batch_capacity, (*out)[pi].get(),
                         meters, options_.cancel);
      BatchPool pool;
      meters->records_processed +=
          static_cast<int64_t>((*in)[pi]->rows());
#ifndef NDEBUG
      // The presorted fast path's contract: the input stream registers zero
      // bytes with the ledger — every byte reserved during this pass must be
      // an output push (checked against the output buffer's growth below).
      const int64_t reserved_before = ledgers_[pi].lifetime_reserved();
      const int64_t out_before =
          static_cast<int64_t>((*out)[pi]->payload_bytes());
#endif
      StatusOr<std::unique_ptr<KeyedStream>> stream =
          MakeKeyedStream(pi, (*in)[pi].get(), key, presorted, &pool, meters);
      if (!stream.ok()) return stream.status();
      GroupReader groups(stream->get());
      std::vector<Value> gkey;
      std::vector<Record> members;
      std::vector<Record> emitted;
      CallInputs ci;
      ci.groups.resize(1);
      for (;;) {
        StatusOr<bool> has = groups.NextGroup(meters, &gkey, &members);
        if (!has.ok()) return has.status();
        if (!*has) break;
        ci.groups[0].clear();
        for (const Record& r : members) ci.groups[0].push_back(&r);
        BLACKBOX_RETURN_NOT_OK(
            CallUdf(op.id, interp, state, ci, t, &emitted, meters));
        BLACKBOX_RETURN_NOT_OK(runner.Consume(&emitted));
      }
      BLACKBOX_RETURN_NOT_OK(runner.Flush());
#ifndef NDEBUG
      assert(!presorted ||
             ledgers_[pi].lifetime_reserved() - reserved_before ==
                 static_cast<int64_t>((*out)[pi]->payload_bytes()) -
                     out_before);
#endif
      return Status::OK();
    });
  }

  StatusOr<Partitions> ExecReduce(const PhysicalNode& node,
                                  const dataflow::Operator& op,
                                  const ChainPlan& chain) {
    const OpProperties& p = af_.of(node.op_id);
    StatusOr<Partitions> in_or = Exec(*node.children[0]);
    if (!in_or.ok()) return in_or.status();
    Partitions in = std::move(in_or).value();
    FieldTranslation t = MakeTranslation(node);
    static const ChainPlan kNoChain;
    if (node.local == LocalStrategy::kPreAggregate) {
      // Combiner: aggregate each producer partition's local groups *before*
      // the shuffle. The partial records use the Reduce's own output layout
      // (combinability guarantees it coincides with the input layout), so
      // the post-shuffle pass below runs the identical UDF unchanged and the
      // shuffle ships at most (distinct keys × dop) records.
      Partitions combined = NewPartitions();
      BLACKBOX_RETURN_NOT_OK(SortGroupPass(&in, op, p.keys[0], t,
                                           /*presorted=*/false, kNoChain,
                                           &combined));
      in = std::move(combined);
    }
    StatusOr<Partitions> shipped =
        Ship(std::move(in), node.ships[0], p.keys[0]);
    if (!shipped.ok()) return shipped.status();
    in = std::move(shipped).value();
    Partitions out = NewPartitions();
    // A presorted forward input streams its groups: no sort buffer, no
    // spill — the stream choice (and the zero-buffering assert) live in
    // MakeKeyedStream, next to the spill machinery.
    bool presorted = node.local != LocalStrategy::kPreAggregate &&
                     !node.input_presorted.empty() && node.input_presorted[0];
    BLACKBOX_RETURN_NOT_OK(
        SortGroupPass(&in, op, p.keys[0], t, presorted, chain, &out));
    return out;
  }

  /// Sort-merge equi-join of one partition: both sides as key-ordered
  /// streams (external sorter, or the free pass-through for a side the plan
  /// established as presorted — the claimed order is still verified at run
  /// time), equal-key runs joined pairwise with the left run streamed
  /// outermost in arrival order. The stable sorts keep arrival order within
  /// equal keys, so a downstream operator grouping on this key sees members
  /// in the same relative order a hash join probing a sorted stream would
  /// deliver.
  Status MergeJoinPartition(size_t pi, SpillableBuffer* left,
                            SpillableBuffer* right,
                            const std::vector<AttrId>& lkey,
                            const std::vector<AttrId>& rkey, bool lsorted,
                            bool rsorted, int op_id, const Interpreter& interp,
                            Interpreter::CallState& state,
                            const FieldTranslation& t, ChainRunner* runner,
                            ExecStats* meters) {
    BatchPool pool;
    meters->records_processed +=
        static_cast<int64_t>(left->rows() + right->rows());
    // The left sorter fills and finishes first; while it grows, the
    // still-undrained right buffer remains an eviction candidate, so the
    // instance never holds both sides' sort buffers un-spilled over budget.
    StatusOr<std::unique_ptr<KeyedStream>> ls =
        MakeKeyedStream(pi, left, lkey, lsorted, &pool, meters);
    if (!ls.ok()) return ls.status();
    StatusOr<std::unique_ptr<KeyedStream>> rs =
        MakeKeyedStream(pi, right, rkey, rsorted, &pool, meters);
    if (!rs.ok()) return rs.status();
    GroupReader gl(ls->get());
    GroupReader gr(rs->get());
    std::vector<Value> lk, rk;
    std::vector<Record> lmem, rmem;
    std::vector<Record> emitted;
    CallInputs ci = RecordInputs(2);
    StatusOr<bool> lh = gl.NextGroup(meters, &lk, &lmem);
    if (!lh.ok()) return lh.status();
    StatusOr<bool> rh = gr.NextGroup(meters, &rk, &rmem);
    if (!rh.ok()) return rh.status();
    while (*lh && *rh) {
      if (KeyLess(lk, rk)) {
        lh = gl.NextGroup(meters, &lk, &lmem);
        if (!lh.ok()) return lh.status();
        continue;
      }
      if (KeyLess(rk, lk)) {
        rh = gr.NextGroup(meters, &rk, &rmem);
        if (!rh.ok()) return rh.status();
        continue;
      }
      for (const Record& a : lmem) {
        for (const Record& b : rmem) {
          ci.groups[0][0] = &a;
          ci.groups[1][0] = &b;
          BLACKBOX_RETURN_NOT_OK(
              CallUdf(op_id, interp, state, ci, t, &emitted, meters));
          BLACKBOX_RETURN_NOT_OK(runner->Consume(&emitted));
        }
      }
      lh = gl.NextGroup(meters, &lk, &lmem);
      if (!lh.ok()) return lh.status();
      rh = gr.NextGroup(meters, &rk, &rmem);
      if (!rh.ok()) return rh.status();
    }
    return Status::OK();
  }

  /// Budget-respecting hash join of one partition that preserves the exact
  /// output sequence of the in-memory path (probe arrival order, matches in
  /// build arrival order): the probe side is drained batch-wise, and for
  /// each probe batch the build side is re-scanned (spilled runs re-read,
  /// metered) one batch at a time — each build batch gets a transient
  /// JoinTable, matches accumulate per probe record in build-batch order
  /// (batches are arrival-contiguous, so that IS build arrival order), and
  /// emission is probe-record-major. A probe batch's accumulated matches are
  /// pinned working set on the partition's ledger — the table holds record
  /// copies that cannot be evicted mid-probe, so they must count against the
  /// instance like the resident build side of the in-memory path
  /// (DESIGN.md §2.3).
  Status BlockHashJoinPartition(size_t pi, SpillableBuffer* build,
                                SpillableBuffer* probe,
                                const std::vector<AttrId>& build_key,
                                const std::vector<AttrId>& probe_key,
                                bool build_left, int op_id,
                                const Interpreter& interp,
                                Interpreter::CallState& state,
                                const FieldTranslation& t, ChainRunner* runner,
                                ExecStats* meters) {
    BatchPool pool;
    meters->records_processed +=
        static_cast<int64_t>(build->rows() + probe->rows());
    std::vector<Record> emitted;
    CallInputs ci = RecordInputs(2);
    return probe->DrainBatches(
        meters, &pool, [&](RecordBatch&& pb) -> Status {
          std::vector<std::vector<Record>> matches(pb.size());
          // Run skipping (DESIGN.md §2.5): a build run (or in-memory batch)
          // whose key-column ranges cannot intersect this probe batch's
          // cannot contribute a match — its re-read is elided entirely.
          // Value equality is exact-type, so each key column is refuted
          // per-type by RangesMayIntersect.
          SpillableBuffer::SkipFn skip_fn;
          const SpillableBuffer::SkipFn* skip = nullptr;
          if (options_.enable_data_skipping) {
            std::vector<ValueRange> probe_ranges(build_key.size());
            for (size_t k = 0; k < build_key.size(); ++k) {
              probe_ranges[k] =
                  pb.sketch().ColumnRange(static_cast<size_t>(probe_key[k]));
            }
            // By value: the ranges must outlive this block (the predicate
            // runs inside ForEachBatch below).
            skip_fn = [probe_ranges = std::move(probe_ranges),
                       &build_key](const ZoneMapSketch& s) -> bool {
              for (size_t k = 0; k < build_key.size(); ++k) {
                if (!RangesMayIntersect(
                        probe_ranges[k],
                        s.ColumnRange(static_cast<size_t>(build_key[k])))) {
                  return true;
                }
              }
              return false;
            };
            skip = &skip_fn;
          }
          PinnedBytes resident(&ledgers_[pi]);
          Status st = build->ForEachBatch(
              meters, &pool,
              [&](const RecordBatch& bb) -> Status {
                // Entry j is bb.record(j): the table is filled in order.
                JoinTable table(build_key, bb.size());
                for (size_t j = 0; j < bb.size(); ++j) {
                  table.Insert(&bb.record(j));
                }
                for (size_t i = 0; i < pb.size(); ++i) {
                  for (uint32_t j = table.Find(pb.record(i), probe_key);
                       j != JoinTable::kEnd; j = table.Next(j)) {
                    BLACKBOX_RETURN_NOT_OK(resident.Add(
                        static_cast<int64_t>(bb.record_bytes(j)), meters));
                    matches[i].push_back(bb.record(j));
                  }
                }
                return Status::OK();
              },
              skip);
          BLACKBOX_RETURN_NOT_OK(st);
          for (size_t i = 0; i < pb.size(); ++i) {
            for (const Record& b : matches[i]) {
              ci.groups[0][0] = build_left ? &b : &pb.record(i);
              ci.groups[1][0] = build_left ? &pb.record(i) : &b;
              BLACKBOX_RETURN_NOT_OK(
                  CallUdf(op_id, interp, state, ci, t, &emitted, meters));
              BLACKBOX_RETURN_NOT_OK(runner->Consume(&emitted));
            }
          }
          pool.Release(std::move(pb));
          return Status::OK();
        });
  }

  StatusOr<Partitions> ExecMatch(const PhysicalNode& node,
                                 const dataflow::Operator& op,
                                 const ChainPlan& chain) {
    const OpProperties& p = af_.of(node.op_id);
    StatusOr<Partitions> l_or = Exec(*node.children[0]);
    if (!l_or.ok()) return l_or.status();
    StatusOr<Partitions> r_or = Exec(*node.children[1]);
    if (!r_or.ok()) return r_or.status();
    StatusOr<Partitions> ls =
        Ship(std::move(l_or).value(), node.ships[0], p.keys[0]);
    if (!ls.ok()) return ls.status();
    StatusOr<Partitions> rs =
        Ship(std::move(r_or).value(), node.ships[1], p.keys[1]);
    if (!rs.ok()) return rs.status();
    Partitions left = std::move(ls).value();
    Partitions right = std::move(rs).value();
    FieldTranslation t = MakeTranslation(node);
    if (node.local == LocalStrategy::kSortMergeJoin) {
      Partitions out = NewPartitions();
      Status st =
          ForEachPartition([&](size_t pi, ExecStats* meters) -> Status {
            Interpreter interp(op.udf.get());
            Interpreter::CallState state;
            ChainRunner runner(&chain, options_.batch_capacity,
                               out[pi].get(), meters, options_.cancel);
            bool lsorted = node.input_presorted.size() >= 2 &&
                           node.input_presorted[0];
            bool rsorted = node.input_presorted.size() >= 2 &&
                           node.input_presorted[1];
            BLACKBOX_RETURN_NOT_OK(MergeJoinPartition(
                pi, left[pi].get(), right[pi].get(), p.keys[0], p.keys[1],
                lsorted, rsorted, op.id, interp, state, t, &runner, meters));
            return runner.Flush();
          });
      if (!st.ok()) return st;
      return out;
    }
    bool build_left = node.local == LocalStrategy::kHashJoinBuildLeft;
    Partitions out = NewPartitions();
    Status st = ForEachPartition([&](size_t pi, ExecStats* meters) -> Status {
      Interpreter interp(op.udf.get());
      Interpreter::CallState state;
      ChainRunner runner(&chain, options_.batch_capacity, out[pi].get(),
                         meters, options_.cancel);
      SpillableBuffer* build = (build_left ? left : right)[pi].get();
      SpillableBuffer* probe = (build_left ? right : left)[pi].get();
      const std::vector<AttrId>& build_key = build_left ? p.keys[0] : p.keys[1];
      const std::vector<AttrId>& probe_key = build_left ? p.keys[1] : p.keys[0];
      // The spill manager decides the strategy: a build side that fits the
      // instance budget is pinned in memory and probed in arrival order
      // (the classic path below); a larger one cannot be held as a table at
      // all. Then, when no downstream consumer can rely on this node's
      // output order (the planner tracked none), the partition executes as
      // an external sort-merge join — key-major output, which key-grouped
      // consumers see identically (DESIGN.md §3.1). When the plan DOES
      // carry an output order (the probe side's, which hash joins
      // propagate), key-major output could break a downstream presorted
      // claim, so the partition runs a block hash join instead — probe
      // order preserved exactly (DESIGN.md §2.3). A build side whose
      // spilled runs show key clustering (detected from the run-header
      // sketches alone) also takes the block join: the per-probe-batch
      // re-scan can then refute narrow runs (DESIGN.md §2.5), where the
      // merge join would pay a full external sort of both sides. That test
      // reads sketches, never the skipping switch, so the chosen strategy —
      // and with it the disk + skipped_spill_bytes sum — is identical with
      // skipping on and off.
      if (static_cast<double>(build->payload_bytes()) >
          options_.mem_budget_bytes) {
        if (node.sort_order.empty() &&
            !build->SpilledRunsAreKeyClustered(build_key)) {
          BLACKBOX_RETURN_NOT_OK(MergeJoinPartition(
              pi, left[pi].get(), right[pi].get(), p.keys[0], p.keys[1],
              /*lsorted=*/false, /*rsorted=*/false, op.id, interp, state, t,
              &runner, meters));
        } else {
          BLACKBOX_RETURN_NOT_OK(BlockHashJoinPartition(
              pi, build, probe, build_key, probe_key, build_left, op.id,
              interp, state, t, &runner, meters));
        }
        return runner.Flush();
      }
      BatchPool pool;
      meters->records_processed +=
          static_cast<int64_t>(build->rows() + probe->rows());
      // Materialize the build side resident (pinned: the table references
      // its records, so it must not be evicted mid-probe; co-resident
      // buffers are evicted to make room — it fits by the check above).
      PinnedBytes resident(&ledgers_[pi]);
      std::vector<RecordBatch> build_run;
      BLACKBOX_RETURN_NOT_OK(build->DrainBatches(
          meters, &pool, [&](RecordBatch&& b) -> Status {
            BLACKBOX_RETURN_NOT_OK(
                resident.Add(static_cast<int64_t>(b.bytes()), meters));
            build_run.push_back(std::move(b));
            return Status::OK();
          }));
      // Partition-local build table, filled in build arrival order.
      JoinTable table(build_key, BatchesRows(build_run));
      for (const RecordBatch& b : build_run) {
        for (size_t i = 0; i < b.size(); ++i) table.Insert(&b.record(i));
      }
      std::vector<Record> emitted;
      CallInputs ci = RecordInputs(2);
      BLACKBOX_RETURN_NOT_OK(probe->DrainBatches(
          meters, &pool, [&](RecordBatch&& pb) -> Status {
            for (size_t i = 0; i < pb.size(); ++i) {
              const Record& r = pb.record(i);
              for (uint32_t e = table.Find(r, probe_key); e != JoinTable::kEnd;
                   e = table.Next(e)) {
                const Record* b = &table.record(e);
                ci.groups[0][0] = build_left ? b : &r;
                ci.groups[1][0] = build_left ? &r : b;
                BLACKBOX_RETURN_NOT_OK(
                    CallUdf(op.id, interp, state, ci, t, &emitted, meters));
                BLACKBOX_RETURN_NOT_OK(runner.Consume(&emitted));
              }
            }
            pool.Release(std::move(pb));
            return Status::OK();
          }));
      return runner.Flush();
    });
    if (!st.ok()) return st;
    return out;
  }

  StatusOr<Partitions> ExecCross(const PhysicalNode& node,
                                 const dataflow::Operator& op,
                                 const ChainPlan& chain) {
    StatusOr<Partitions> l_or = Exec(*node.children[0]);
    if (!l_or.ok()) return l_or.status();
    StatusOr<Partitions> r_or = Exec(*node.children[1]);
    if (!r_or.ok()) return r_or.status();
    StatusOr<Partitions> ls = Ship(std::move(l_or).value(), node.ships[0], {});
    if (!ls.ok()) return ls.status();
    StatusOr<Partitions> rs = Ship(std::move(r_or).value(), node.ships[1], {});
    if (!rs.ok()) return rs.status();
    Partitions left = std::move(ls).value();
    Partitions right = std::move(rs).value();
    FieldTranslation t = MakeTranslation(node);
    Partitions out = NewPartitions();
    Status st = ForEachPartition([&](size_t pi, ExecStats* meters) -> Status {
      Interpreter interp(op.udf.get());
      Interpreter::CallState state;
      ChainRunner runner(&chain, options_.batch_capacity, out[pi].get(),
                         meters, options_.cancel);
      BatchPool pool;
      SpillableBuffer* lbuf = left[pi].get();
      SpillableBuffer* rbuf = right[pi].get();
      meters->records_processed +=
          static_cast<int64_t>(lbuf->rows() + rbuf->rows());
      std::vector<Record> emitted;
      CallInputs ci = RecordInputs(2);
      if (static_cast<double>(rbuf->payload_bytes()) <=
          options_.mem_budget_bytes) {
        // Inner side fits: pin it resident and loop exactly like the
        // in-memory engine (left-record-major across the whole right side).
        PinnedBytes resident(&ledgers_[pi]);
        std::vector<RecordBatch> right_run;
        BLACKBOX_RETURN_NOT_OK(rbuf->DrainBatches(
            meters, &pool, [&](RecordBatch&& b) -> Status {
              BLACKBOX_RETURN_NOT_OK(
                  resident.Add(static_cast<int64_t>(b.bytes()), meters));
              right_run.push_back(std::move(b));
              return Status::OK();
            }));
        BLACKBOX_RETURN_NOT_OK(lbuf->DrainBatches(
            meters, &pool, [&](RecordBatch&& lb) -> Status {
              for (size_t i = 0; i < lb.size(); ++i) {
                for (const RecordBatch& rb : right_run) {
                  for (size_t j = 0; j < rb.size(); ++j) {
                    ci.groups[0][0] = &lb.record(i);
                    ci.groups[1][0] = &rb.record(j);
                    BLACKBOX_RETURN_NOT_OK(
                        CallUdf(op.id, interp, state, ci, t, &emitted, meters));
                    BLACKBOX_RETURN_NOT_OK(runner.Consume(&emitted));
                  }
                }
              }
              pool.Release(std::move(lb));
              return Status::OK();
            }));
      } else {
        // Block nested loop: the right side stays partially on disk and is
        // re-scanned once per LEFT BATCH (each re-read metered). Pairs come
        // out block-major — a permutation of the in-memory order, covered by
        // the sorted-sink differential contract (the planner tracks no
        // output order through a Cross, so no presorted claim can break).
        BLACKBOX_RETURN_NOT_OK(lbuf->DrainBatches(
            meters, &pool, [&](RecordBatch&& lb) -> Status {
              Status st2 = rbuf->ForEachBatch(
                  meters, &pool, [&](const RecordBatch& rb) -> Status {
                    for (size_t i = 0; i < lb.size(); ++i) {
                      for (size_t j = 0; j < rb.size(); ++j) {
                        ci.groups[0][0] = &lb.record(i);
                        ci.groups[1][0] = &rb.record(j);
                        BLACKBOX_RETURN_NOT_OK(CallUdf(op.id, interp, state,
                                                       ci, t, &emitted,
                                                       meters));
                        BLACKBOX_RETURN_NOT_OK(runner.Consume(&emitted));
                      }
                    }
                    return Status::OK();
                  });
              BLACKBOX_RETURN_NOT_OK(st2);
              pool.Release(std::move(lb));
              return Status::OK();
            }));
      }
      return runner.Flush();
    });
    if (!st.ok()) return st;
    return out;
  }

  StatusOr<Partitions> ExecCoGroup(const PhysicalNode& node,
                                   const dataflow::Operator& op,
                                   const ChainPlan& chain) {
    const OpProperties& p = af_.of(node.op_id);
    StatusOr<Partitions> l_or = Exec(*node.children[0]);
    if (!l_or.ok()) return l_or.status();
    StatusOr<Partitions> r_or = Exec(*node.children[1]);
    if (!r_or.ok()) return r_or.status();
    StatusOr<Partitions> ls =
        Ship(std::move(l_or).value(), node.ships[0], p.keys[0]);
    if (!ls.ok()) return ls.status();
    StatusOr<Partitions> rs =
        Ship(std::move(r_or).value(), node.ships[1], p.keys[1]);
    if (!rs.ok()) return rs.status();
    Partitions left = std::move(ls).value();
    Partitions right = std::move(rs).value();
    FieldTranslation t = MakeTranslation(node);
    Partitions out = NewPartitions();
    Status st = ForEachPartition([&](size_t pi, ExecStats* meters) -> Status {
      Interpreter interp(op.udf.get());
      Interpreter::CallState state;
      ChainRunner runner(&chain, options_.batch_capacity, out[pi].get(),
                         meters, options_.cancel);
      BatchPool pool;
      meters->records_processed += static_cast<int64_t>(
          left[pi]->rows() + right[pi]->rows());
      // Per-side key-ordered streams (a presorted side streams its groups
      // for free and never spills); the union of keys is walked in key
      // order, exactly the old sorted-map iteration.
      bool lsorted =
          node.input_presorted.size() >= 2 && node.input_presorted[0];
      bool rsorted =
          node.input_presorted.size() >= 2 && node.input_presorted[1];
      StatusOr<std::unique_ptr<KeyedStream>> lstream = MakeKeyedStream(
          pi, left[pi].get(), p.keys[0], lsorted, &pool, meters);
      if (!lstream.ok()) return lstream.status();
      StatusOr<std::unique_ptr<KeyedStream>> rstream = MakeKeyedStream(
          pi, right[pi].get(), p.keys[1], rsorted, &pool, meters);
      if (!rstream.ok()) return rstream.status();
      GroupReader gl(lstream->get());
      GroupReader gr(rstream->get());
      std::vector<Value> lk, rk;
      std::vector<Record> lmem, rmem;
      std::vector<Record> emitted;
      CallInputs ci;
      ci.groups.resize(2);
      StatusOr<bool> lh = gl.NextGroup(meters, &lk, &lmem);
      if (!lh.ok()) return lh.status();
      StatusOr<bool> rh = gr.NextGroup(meters, &rk, &rmem);
      if (!rh.ok()) return rh.status();
      while (*lh || *rh) {
        bool take_left = *lh && (!*rh || !KeyLess(rk, lk));
        bool take_right = *rh && (!*lh || !KeyLess(lk, rk));
        ci.groups[0].clear();
        ci.groups[1].clear();
        if (take_left) {
          for (const Record& r : lmem) ci.groups[0].push_back(&r);
        }
        if (take_right) {
          for (const Record& r : rmem) ci.groups[1].push_back(&r);
        }
        BLACKBOX_RETURN_NOT_OK(
            CallUdf(op.id, interp, state, ci, t, &emitted, meters));
        BLACKBOX_RETURN_NOT_OK(runner.Consume(&emitted));
        if (take_left) {
          lh = gl.NextGroup(meters, &lk, &lmem);
          if (!lh.ok()) return lh.status();
        }
        if (take_right) {
          rh = gr.NextGroup(meters, &rk, &rmem);
          if (!rh.ok()) return rh.status();
        }
      }
      return runner.Flush();
    });
    if (!st.ok()) return st;
    return out;
  }

  const dataflow::AnnotatedFlow& af_;
  const std::map<int, const DataSet*>& sources_;
  const ExecOptions& options_;
  TaskPool* pool_;
  ExecStats* stats_;
  /// Shared spill-file factory (thread-safe) and one byte ledger per
  /// simulated instance: the spill manager layer (DESIGN.md §2.3).
  SpillManager spill_;
  std::vector<MemoryLedger> ledgers_;
};

}  // namespace

void ExecStats::AddCounters(const ExecStats& other) {
  network_bytes += other.network_bytes;
  disk_bytes += other.disk_bytes;
  udf_calls += other.udf_calls;
  interp_instructions += other.interp_instructions;
  cpu_burn_units += other.cpu_burn_units;
  records_processed += other.records_processed;
  skipped_batches += other.skipped_batches;
  skipped_spill_bytes += other.skipped_spill_bytes;
  fused_chains += other.fused_chains;
  specialized_instructions_saved += other.specialized_instructions_saved;
  projected_fields_skipped += other.projected_fields_skipped;
  if (per_op.size() < other.per_op.size()) per_op.resize(other.per_op.size());
  for (size_t i = 0; i < other.per_op.size(); ++i) {
    OpMeters& m = per_op[i];
    m.udf_calls += other.per_op[i].udf_calls;
    m.rows_out += other.per_op[i].rows_out;
    m.interp_instructions += other.per_op[i].interp_instructions;
    m.cpu_burn_units += other.per_op[i].cpu_burn_units;
  }
}

std::string ExecStats::ToString() const {
  std::string out;
  out += "net=" + std::to_string(network_bytes) + "B";
  out += " disk=" + std::to_string(disk_bytes) + "B";
  out += " peak=" + std::to_string(peak_bytes) + "B";
  out += " udf_calls=" + std::to_string(udf_calls);
  out += " instrs=" + std::to_string(interp_instructions);
  out += " cpu_burn=" + std::to_string(cpu_burn_units);
  out += " records=" + std::to_string(records_processed);
  out += " skipped_batches=" + std::to_string(skipped_batches);
  out += " skipped_spill=" + std::to_string(skipped_spill_bytes) + "B";
  out += " fused_chains=" + std::to_string(fused_chains);
  out += " spec_saved=" + std::to_string(specialized_instructions_saved);
  out += " proj_skipped=" + std::to_string(projected_fields_skipped);
  out += " out_rows=" + std::to_string(output_rows);
  out += " wall=" + std::to_string(wall_seconds) + "s";
  out += " simulated=" + std::to_string(simulated_seconds) + "s";
  return out;
}

StatusOr<DataSet> Executor::Execute(const optimizer::PhysicalPlan& plan,
                                    ExecStats* stats) {
  if (!plan.root) return Status::InvalidArgument("empty physical plan");
  if (options_.batch_capacity < 1) {
    return Status::InvalidArgument("batch_capacity must be >= 1");
  }
  // A non-positive budget is a configuration bug, not a degraded mode: with
  // budget <= 0 every reservation is over budget and eviction degenerates
  // into a run file per record. Surface it cleanly (DESIGN.md §2.3).
  if (!(options_.mem_budget_bytes > 0)) {
    return Status::InvalidArgument(
        "mem_budget_bytes must be positive, got " +
        std::to_string(options_.mem_budget_bytes));
  }
  // Entry cancellation point: a query cancelled while queued — or submitted
  // with an already-expired deadline — never touches a source batch.
  if (options_.cancel != nullptr) {
    BLACKBOX_RETURN_NOT_OK(options_.cancel->Check());
  }
  auto start = std::chrono::steady_clock::now();
  TaskPool* workers = options_.worker_pool;
  if (workers == nullptr) {
    if (!pool_) pool_ = std::make_unique<TaskPool>(options_.num_threads);
    workers = pool_.get();
  }
  ExecContext ctx(*af_, sources_, options_, workers, stats);
  StatusOr<Partitions> out = ctx.Exec(*plan.root);
  if (!out.ok()) return out.status();

  // Gather in partition index order — the canonical output order for every
  // thread count. The root chain ends in the sink stage, so its output
  // records ARE the final records, already projected onto the sink schema:
  // reuse their cached sizes instead of re-walking every payload. Root
  // buffers that spilled under the budget are streamed back from disk
  // (metered) — the gathered DataSet is the client-side result, outside the
  // budget's scope like the bound sources.
  ExecStats gather;
  BatchPool pool;
  DataSet result;
  for (std::unique_ptr<SpillableBuffer>& part : *out) {
    Status st = part->DrainBatches(
        &gather, &pool, [&](RecordBatch&& b) -> Status {
          for (size_t i = 0; i < b.size(); ++i) {
            result.AddWithSize(std::move(b.mutable_record(i)),
                               b.record_bytes(i));
          }
          pool.Release(std::move(b));
          return Status::OK();
        });
    if (!st.ok()) return st;
  }
  auto end = std::chrono::steady_clock::now();
  if (stats) {
    stats->AddCounters(gather);
    stats->output_rows = static_cast<int64_t>(result.size());
    stats->peak_bytes = ctx.peak_bytes();
    stats->wall_seconds = std::chrono::duration<double>(end - start).count();
    // simulated_seconds is a pure function of the meters (machine model),
    // deliberately NOT of wall_seconds: the simulated cluster's runtime must
    // not depend on how many real threads executed the simulation.
    double compute_seconds =
        static_cast<double>(stats->interp_instructions) /
            options_.interp_instructions_per_s +
        static_cast<double>(stats->cpu_burn_units) /
            options_.cpu_burn_units_per_s +
        static_cast<double>(stats->records_processed) / options_.records_per_s;
    stats->simulated_seconds =
        compute_seconds +
        static_cast<double>(stats->network_bytes) /
            options_.net_bandwidth_bytes_per_s +
        static_cast<double>(stats->disk_bytes) /
            options_.disk_bandwidth_bytes_per_s;
  }
  return result;
}

}  // namespace engine
}  // namespace blackbox
