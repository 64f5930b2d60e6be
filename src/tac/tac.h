// Three-address-code (TAC) intermediate representation for user-defined
// functions. Section 5 of the paper performs static code analysis over "typed
// three-address code" with a record API (getField / setField / copy and
// default constructors / emit). We implement that IR directly: a UDF written
// in this IR is both *executable* (src/interp) and *analyzable* (src/sca),
// which lets property tests validate end-to-end that every reordering the
// analysis admits is output-preserving.
//
// Register model: a single space of virtual registers, each either a value
// register (holds a Value) or a record register (holds a Record). The
// verifier checks type consistency.

#ifndef BLACKBOX_TAC_TAC_H_
#define BLACKBOX_TAC_TAC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace blackbox {
namespace tac {

enum class Opcode {
  // Constants.
  kConstInt,     // dst := imm_int
  kConstDouble,  // dst := imm_double
  kConstStr,     // dst := imm_str
  kConstNull,    // dst := null

  // Value moves and arithmetic (int/int -> int, otherwise double).
  kMove,  // dst := src0
  kAdd,   // dst := src0 + src1
  kSub,   // dst := src0 - src1
  kMul,   // dst := src0 * src1
  kDiv,   // dst := src0 / src1
  kMod,   // dst := src0 % src1 (integers)
  kNeg,   // dst := -src0

  // Comparisons produce int 0/1.
  kCmpLt,
  kCmpLe,
  kCmpGt,
  kCmpGe,
  kCmpEq,
  kCmpNe,

  // Boolean logic over int 0/1.
  kAnd,
  kOr,
  kNot,

  // String helpers (used by the text-mining workload UDFs).
  kStrLen,       // dst := len(src0)
  kStrConcat,    // dst := src0 + src1
  kStrContains,  // dst := src0 contains src1 ? 1 : 0
  kStrHashMod,   // dst := hash(src0) % imm_int  (deterministic "classifier")

  // Control flow.
  kGoto,           // goto target
  kBranchIfTrue,   // if src0 != 0 goto target
  kBranchIfFalse,  // if src0 == 0 goto target
  kReturn,         // end of UDF invocation

  // Record API (the paper's assumed API, Section 5).
  kGetField,       // dst := getField(rec src0, index)
  kSetField,       // setField(rec dst, index, src0)
  kCopyRecord,     // rec dst := new OutputRecord(rec src0)   [implicit copy]
  kNewRecord,      // rec dst := new OutputRecord()           [implicit projection]
  kConcatRecords,  // rec dst := new OutputRecord(rec src0, rec src1)
  kEmit,           // emit(rec src0)

  // Input access. RAT UDFs read the single record of an input; KAT UDFs
  // iterate over a key group.
  kInputRecord,  // rec dst := the only record of input imm_int  (RAT)
  kInputCount,   // dst := |group of input imm_int|              (KAT)
  kInputAt,      // rec dst := group(input imm_int)[src0]        (KAT)

  // Specialized chain-input access (DESIGN.md §2.6). Only emitted by the
  // chain fuser (src/tac/fuse): dst := field imm_int of the chain's current
  // input row, where imm_int is a *global* attribute position (already
  // translated — no FieldTranslation is applied). Reads go through the
  // batch's lazy ColumnView, so only the fields a fused program actually
  // names are ever materialized. Out-of-range positions yield Null, exactly
  // like kGetField. Executing it outside Interpreter::RunFusedChain is an
  // internal error.
  kGetInputField,

  // Simulated CPU work (calibrated cost of e.g. an NLP component). The
  // interpreter spins imm_int work units; SCA ignores it (no data effect).
  kCpuBurn,
};

/// Returns the mnemonic for an opcode (used by the pretty-printer).
const char* OpcodeName(Opcode op);

/// One TAC instruction. Field-index operands of kGetField / kSetField are
/// either a static literal (index_is_reg == false, value in imm_int) or a
/// register (index_is_reg == true, register in src1) — the latter models the
/// "computed field index" case the paper's SCA must treat conservatively.
struct Instr {
  Opcode op;
  int dst = -1;   // destination register (value or record), -1 if none
  int src0 = -1;  // first source register
  int src1 = -1;  // second source register (or index register, see above)
  int64_t imm_int = 0;
  double imm_double = 0.0;
  std::string imm_str;
  int target = -1;  // branch target: instruction index
  bool index_is_reg = false;

  std::string ToString(int label) const;
};

enum class RegType { kUnknown = 0, kValue, kRecord };

/// UDF invocation style: record-at-a-time (Map, Cross, Match) vs.
/// key-at-a-time (Reduce, CoGroup) — §2.3.
enum class UdfKind { kRat, kKat };

/// A verified TAC function: the imperative first-order UDF of one operator.
class Function {
 public:
  const std::string& name() const { return name_; }
  int num_inputs() const { return num_inputs_; }
  UdfKind kind() const { return kind_; }
  int num_registers() const { return static_cast<int>(reg_types_.size()); }
  RegType reg_type(int reg) const { return reg_types_[reg]; }

  const std::vector<Instr>& instrs() const { return instrs_; }

  /// Record lifetimes (DESIGN.md §2.2), derived once by
  /// FunctionBuilder::Build. borrows(reg): record register `reg` is never a
  /// kSetField destination, so an input load into it may borrow the caller's
  /// record instead of copying it.
  bool borrows(int reg) const { return borrows_[reg] != 0; }
  /// moves_at(pc): the instruction at `pc` is a kEmit whose register is dead
  /// after it on every path, so the record may move out instead of being
  /// copied.
  bool moves_at(int pc) const { return moves_[pc] != 0; }

  /// Disassembly with instruction labels, in the style of the paper's §3
  /// listings.
  std::string ToString() const;

 private:
  friend class FunctionBuilder;

  std::string name_;
  int num_inputs_ = 1;
  UdfKind kind_ = UdfKind::kRat;
  std::vector<Instr> instrs_;
  std::vector<RegType> reg_types_;
  std::vector<uint8_t> borrows_;  // per register
  std::vector<uint8_t> moves_;    // per instruction
};

/// Opaque register handle produced by the builder.
struct Reg {
  int id = -1;
};

/// Opaque label handle for branch targets.
struct Label {
  int id = -1;
};

/// Fluent builder for TAC functions. Typical use:
///
///   FunctionBuilder b("filter_positive", /*num_inputs=*/1, UdfKind::kRat);
///   Reg ir = b.InputRecord(0);
///   Reg a = b.GetField(ir, 0);
///   Label skip = b.NewLabel();
///   b.BranchIfFalse(b.CmpGe(a, b.ConstInt(0)), skip);
///   Reg out = b.Copy(ir);
///   b.Emit(out);
///   b.Bind(skip);
///   b.Return();
///   StatusOr<Function> f = b.Build();
class FunctionBuilder {
 public:
  FunctionBuilder(std::string name, int num_inputs, UdfKind kind);

  // --- Input access ---
  Reg InputRecord(int input);          // RAT
  Reg InputCount(int input);           // KAT
  Reg InputAt(int input, Reg pos);     // KAT

  // --- Constants ---
  Reg ConstInt(int64_t v);
  Reg ConstDouble(double v);
  Reg ConstStr(std::string v);
  Reg ConstNull();

  // --- Arithmetic / comparison / logic ---
  Reg Move(Reg a);
  /// In-place update dst := dst + src — loop-carried accumulators (TAC has no
  /// phi nodes; loop state lives in a fixed register redefined per iteration).
  void AccumAdd(Reg dst, Reg src);
  /// In-place assignment dst := src.
  void Assign(Reg dst, Reg src);
  Reg Add(Reg a, Reg b);
  Reg Sub(Reg a, Reg b);
  Reg Mul(Reg a, Reg b);
  Reg Div(Reg a, Reg b);
  Reg Mod(Reg a, Reg b);
  Reg Neg(Reg a);
  Reg CmpLt(Reg a, Reg b);
  Reg CmpLe(Reg a, Reg b);
  Reg CmpGt(Reg a, Reg b);
  Reg CmpGe(Reg a, Reg b);
  Reg CmpEq(Reg a, Reg b);
  Reg CmpNe(Reg a, Reg b);
  Reg And(Reg a, Reg b);
  Reg Or(Reg a, Reg b);
  Reg Not(Reg a);
  Reg StrLen(Reg a);
  Reg StrConcat(Reg a, Reg b);
  Reg StrContains(Reg a, Reg b);
  Reg StrHashMod(Reg a, int64_t mod);

  // --- Record API ---
  Reg GetField(Reg rec, int index);
  /// Fused-chain input access: dst := field `pos` (a global attribute
  /// position) of the current chain-input row. Fuser-only; see kGetInputField.
  Reg GetInputField(int pos);
  Reg GetFieldDyn(Reg rec, Reg index);  // computed index (SCA-opaque)
  void SetField(Reg rec, int index, Reg value);
  void SetFieldDyn(Reg rec, Reg index, Reg value);
  Reg Copy(Reg rec);     // implicit copy constructor
  Reg NewRecord();       // implicit projection constructor
  Reg Concat(Reg a, Reg b);
  void Emit(Reg rec);

  // --- Control flow ---
  Label NewLabel();
  void Bind(Label label);
  void Goto(Label label);
  void BranchIfTrue(Reg cond, Label label);
  void BranchIfFalse(Reg cond, Label label);
  void Return();
  void CpuBurn(int64_t units);

  /// Number of instructions pushed so far. The chain fuser uses it to bound
  /// the size of a fused body (tail duplication can blow up) and to place
  /// labels relative to the preamble.
  int num_instrs() const { return static_cast<int>(fn_.instrs_.size()); }

  /// Finalizes and verifies the function: all labels bound, branch targets in
  /// range, register types consistent, final instruction path returns.
  StatusOr<Function> Build();

 private:
  Reg NewReg(RegType type);
  void Push(Instr instr);
  Status Verify() const;
  void DeriveRecordLifetimes();

  Function fn_;
  std::vector<int> label_positions_;          // label id -> instr index (-1 unbound)
  std::vector<std::pair<int, int>> fixups_;   // (instr index, label id)
  bool built_ = false;
};

}  // namespace tac
}  // namespace blackbox

#endif  // BLACKBOX_TAC_TAC_H_
