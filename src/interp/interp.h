// TAC interpreter: executes one UDF invocation. The engine calls this once
// per record (RAT operators) or once per key group / co-group (KAT
// operators). The interpreter is deliberately side-effect free — a UDF can
// only observe its input records and only act by emitting output records,
// which is exactly the "no hidden communication channels" restriction the
// paper's reordering theory assumes (Section 3).
//
// Field translation: UDF code addresses fields by *static indices into its
// original input layout*. After reordering, the physical record layout is the
// global record (Definition 1), so every access goes through a redirection
// table local index -> global position supplied by the caller.

#ifndef BLACKBOX_INTERP_INTERP_H_
#define BLACKBOX_INTERP_INTERP_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "record/record.h"
#include "tac/tac.h"

namespace blackbox {

class ColumnView;

namespace interp {

/// Redirection configuration for one UDF invocation site (one operator
/// placement inside one plan).
struct FieldTranslation {
  /// For each input: local field index -> position in the in-flight (global)
  /// record. Identity translation if empty.
  std::vector<std::vector<int>> input_maps;

  /// Output local field index -> global position. Identity if empty.
  std::vector<int> output_map;

  /// Width of in-flight records; emitted records are resized to this. 0 means
  /// "whatever the constructor produced" (raw mode for unit tests).
  int global_width = 0;

  /// For kConcatRecords: positions (global) owned by each input; the merge
  /// takes input-0 positions from src0 and input-1 positions from src1.
  /// Unused in raw mode (raw concat appends).
  std::vector<std::vector<int>> concat_positions;
};

/// Per-invocation resource metering.
struct RunStats {
  int64_t instructions = 0;
  int64_t cpu_burn_units = 0;
  int64_t emits = 0;
};

/// One invocation's inputs: for RAT inputs the group has exactly one record.
struct CallInputs {
  /// groups[i] is the key group of input i (size 1 for RAT inputs).
  std::vector<std::vector<const Record*>> groups;
};

class Interpreter {
 private:
  /// Reusable per-invocation state. Sized to the function's register count
  /// once; Reset() restores the fresh-call contents without reallocating.
  ///
  /// Record lifetimes (DESIGN.md §2.2): a record register reads through
  /// rec_refs, which points either at its own slot in recs or, for a
  /// register tac::Function::borrows, at the caller's input record. A
  /// borrowed pointer lives for one call; every caller keeps its input
  /// records alive and unmoved for that long. An emit the function marks as
  /// moves_at moves the slot's record out, leaving the register null.
  struct Workspace {
    std::vector<Value> vals;
    std::vector<Record> recs;
    std::vector<const Record*> rec_refs;
    std::vector<int> rec_input;
    std::vector<Record> emitted;  // RunBatch's per-call emit buffer

    /// First-use sizing on a fresh workspace: resize value-initializes vals
    /// and recs, so only rec_refs and rec_input's "no provenance" sentinel
    /// need filling. The emit buffer's capacity is reserved here once —
    /// per-call use only clears it, so steady-state batch runs never
    /// reallocate it.
    void Resize(size_t num_registers) {
      vals.resize(num_registers);
      recs.resize(num_registers);
      rec_refs.resize(num_registers);
      OwnAll();
      rec_input.assign(num_registers, -2);
      emitted.reserve(8);
    }
    /// Between-call reuse (RunBatch, CallState): restore the fresh-call
    /// contents without reallocating.
    void Reset() {
      std::fill(vals.begin(), vals.end(), Value());
      std::fill(recs.begin(), recs.end(), Record());
      OwnAll();
      std::fill(rec_input.begin(), rec_input.end(), -2);
    }
    /// Points every record register back at its own slot.
    void OwnAll() {
      for (size_t r = 0; r < recs.size(); ++r) rec_refs[r] = &recs[r];
    }
  };

 public:
  /// Upper bound on executed instructions per invocation; guards against
  /// accidental infinite loops in hand-written UDFs.
  static constexpr int64_t kDefaultStepLimit = 50'000'000;

  /// Records between two cancellation polls inside a batch loop: frequent
  /// enough that a chain stuck in a long batch of expensive UDF calls still
  /// unwinds promptly, rare enough that the relaxed load never shows up in
  /// profiles.
  static constexpr size_t kCancelCheckStride = 64;

  explicit Interpreter(const tac::Function* fn) : fn_(fn) {}

  /// Arms the batch loops' amortized cancellation poll (every
  /// kCancelCheckStride records). Null (the default) disables it. The token
  /// is borrowed and only ever read — a token that never fires leaves
  /// output and RunStats byte-identical to no token at all.
  void set_cancel(const CancelToken* cancel) { cancel_ = cancel; }

  /// Persistent state for RunFusedChain, owned by one chain runner and
  /// reused across all its batches: the register workspace (sized once, and
  /// NOT reset between records — every fused-body register is written before
  /// read on the path that reads it, see src/tac/fuse.h, so neither a moved
  /// emit nor a previous row leaks into the next) plus whether the constant
  /// preamble has run.
  class ChainState {
   private:
    friend class Interpreter;
    Workspace ws_;
    bool preamble_done_ = false;
  };

  /// Reusable workspace for a sequence of Run() calls, owned by one
  /// partition task and used with one Interpreter (DESIGN.md §2.1): the
  /// per-call counterpart of ChainState. The first call sizes the register
  /// workspace; every later call starts from Reset()'s fresh-call contents,
  /// so a sequence of Run(..., &state) calls is byte-identical, in output
  /// and RunStats, to the same sequence of fresh Run() calls: no borrowed
  /// input and no moved-out register carries over into the next call.
  class CallState {
   private:
    friend class Interpreter;
    Workspace ws_;
  };

  /// Runs the UDF on the given inputs, appending emitted records to *out.
  /// Equivalent to the CallState overload with a fresh state. The input
  /// records must stay alive and unmoved until Run returns: registers the
  /// function never mutates borrow them instead of copying.
  ///
  /// Thread-safety: Run is re-entrant — all interpreter state (registers,
  /// record slots, step counter) lives on the caller's stack or in the
  /// caller's CallState, and the shared kCpuBurn sink is a relaxed atomic.
  /// The engine relies on this to run one Interpreter per partition task
  /// concurrently (DESIGN.md §2.1).
  Status Run(const CallInputs& inputs, const FieldTranslation& translation,
             std::vector<Record>* out, RunStats* stats = nullptr) const;

  /// Run() over the caller's reusable workspace: no per-call allocation
  /// beyond what the UDF itself builds.
  Status Run(const CallInputs& inputs, const FieldTranslation& translation,
             std::vector<Record>* out, RunStats* stats,
             CallState* state) const;

  /// Batch entry point for RAT operators (DESIGN.md §2.2): one UDF
  /// invocation per record of `in`, with the per-invocation setup — the
  /// register / record-slot / provenance workspaces the FieldTranslation is
  /// applied through — allocated once and reused across the whole batch.
  /// Emitted records are appended to *out. Byte-equivalent to calling Run()
  /// once per record; `stats` accumulates over the batch.
  Status RunBatch(const std::vector<Record>& in,
                  const FieldTranslation& translation,
                  std::vector<Record>* out, RunStats* stats = nullptr) const;

  /// Fused-chain entry point (DESIGN.md §2.6): runs a program produced by
  /// tac::FuseMapChain over the batch of chain-input rows `cols` views. The
  /// constant preamble [0, body_start) executes once per ChainState
  /// lifetime; the body runs once per row and reads its input only through
  /// `cols`: kGetInputField reads one field, kInputRecord takes
  /// ColumnView::Row — a copy of an in-flight row, or the widened source
  /// row. `translation` must be the identity translation of the emitted
  /// width (empty maps + global_width). Emitted records are appended to *out
  /// in row order.
  Status RunFusedChain(const ColumnView& cols,
                       const FieldTranslation& translation, int body_start,
                       std::vector<Record>* out, RunStats* stats,
                       ChainState* state) const;

 private:
  /// Chain-input access for one fused body execution: the batch's lazy
  /// column view plus the current row index.
  struct FusedInput {
    const ColumnView* cols;
    size_t row;
  };

  Status RunInternal(const CallInputs& inputs,
                     const FieldTranslation& translation,
                     std::vector<Record>* out, RunStats* stats, Workspace* ws,
                     int start_pc, int end_pc, const FusedInput* fused) const;

  const tac::Function* fn_;
  const CancelToken* cancel_ = nullptr;  // borrowed; null disables polling
};

}  // namespace interp
}  // namespace blackbox

#endif  // BLACKBOX_INTERP_INTERP_H_
