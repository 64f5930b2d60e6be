#include "tac/tac.h"

#include <algorithm>
#include <sstream>

namespace blackbox {
namespace tac {

const char* OpcodeName(Opcode op) {
  switch (op) {
    case Opcode::kConstInt: return "const_int";
    case Opcode::kConstDouble: return "const_double";
    case Opcode::kConstStr: return "const_str";
    case Opcode::kConstNull: return "const_null";
    case Opcode::kMove: return "move";
    case Opcode::kAdd: return "add";
    case Opcode::kSub: return "sub";
    case Opcode::kMul: return "mul";
    case Opcode::kDiv: return "div";
    case Opcode::kMod: return "mod";
    case Opcode::kNeg: return "neg";
    case Opcode::kCmpLt: return "cmp_lt";
    case Opcode::kCmpLe: return "cmp_le";
    case Opcode::kCmpGt: return "cmp_gt";
    case Opcode::kCmpGe: return "cmp_ge";
    case Opcode::kCmpEq: return "cmp_eq";
    case Opcode::kCmpNe: return "cmp_ne";
    case Opcode::kAnd: return "and";
    case Opcode::kOr: return "or";
    case Opcode::kNot: return "not";
    case Opcode::kStrLen: return "str_len";
    case Opcode::kStrConcat: return "str_concat";
    case Opcode::kStrContains: return "str_contains";
    case Opcode::kStrHashMod: return "str_hash_mod";
    case Opcode::kGoto: return "goto";
    case Opcode::kBranchIfTrue: return "br_true";
    case Opcode::kBranchIfFalse: return "br_false";
    case Opcode::kReturn: return "return";
    case Opcode::kGetField: return "getField";
    case Opcode::kSetField: return "setField";
    case Opcode::kCopyRecord: return "copy";
    case Opcode::kNewRecord: return "new_record";
    case Opcode::kConcatRecords: return "concat";
    case Opcode::kEmit: return "emit";
    case Opcode::kInputRecord: return "input_record";
    case Opcode::kInputCount: return "input_count";
    case Opcode::kInputAt: return "input_at";
    case Opcode::kGetInputField: return "get_input_field";
    case Opcode::kCpuBurn: return "cpu_burn";
  }
  return "?";
}

std::string Instr::ToString(int label) const {
  std::ostringstream out;
  out << label << ": " << OpcodeName(op);
  if (dst >= 0) out << " $" << dst;
  if (src0 >= 0) out << " $" << src0;
  if (op == Opcode::kGetField || op == Opcode::kSetField) {
    if (index_is_reg) {
      out << " [$" << src1 << "]";
    } else {
      out << " [" << imm_int << "]";
    }
  } else if (src1 >= 0) {
    out << " $" << src1;
  }
  switch (op) {
    case Opcode::kConstInt:
    case Opcode::kInputRecord:
    case Opcode::kInputCount:
    case Opcode::kInputAt:
    case Opcode::kGetInputField:
    case Opcode::kStrHashMod:
    case Opcode::kCpuBurn:
      out << " #" << imm_int;
      break;
    case Opcode::kConstDouble:
      out << " #" << imm_double;
      break;
    case Opcode::kConstStr:
      out << " \"" << imm_str << "\"";
      break;
    default:
      break;
  }
  if (target >= 0) out << " -> " << target;
  return out.str();
}

std::string Function::ToString() const {
  std::ostringstream out;
  out << "function " << name_ << "(" << num_inputs_ << " input"
      << (num_inputs_ == 1 ? "" : "s") << ", "
      << (kind_ == UdfKind::kRat ? "RAT" : "KAT") << ")\n";
  for (size_t i = 0; i < instrs_.size(); ++i) {
    out << "  " << instrs_[i].ToString(static_cast<int>(i)) << "\n";
  }
  return out.str();
}

FunctionBuilder::FunctionBuilder(std::string name, int num_inputs,
                                 UdfKind kind) {
  fn_.name_ = std::move(name);
  fn_.num_inputs_ = num_inputs;
  fn_.kind_ = kind;
}

Reg FunctionBuilder::NewReg(RegType type) {
  fn_.reg_types_.push_back(type);
  return Reg{static_cast<int>(fn_.reg_types_.size()) - 1};
}

void FunctionBuilder::Push(Instr instr) { fn_.instrs_.push_back(std::move(instr)); }

Reg FunctionBuilder::InputRecord(int input) {
  Reg r = NewReg(RegType::kRecord);
  Instr i;
  i.op = Opcode::kInputRecord;
  i.dst = r.id;
  i.imm_int = input;
  Push(std::move(i));
  return r;
}

Reg FunctionBuilder::InputCount(int input) {
  Reg r = NewReg(RegType::kValue);
  Instr i;
  i.op = Opcode::kInputCount;
  i.dst = r.id;
  i.imm_int = input;
  Push(std::move(i));
  return r;
}

Reg FunctionBuilder::InputAt(int input, Reg pos) {
  Reg r = NewReg(RegType::kRecord);
  Instr i;
  i.op = Opcode::kInputAt;
  i.dst = r.id;
  i.src0 = pos.id;
  i.imm_int = input;
  Push(std::move(i));
  return r;
}

Reg FunctionBuilder::ConstInt(int64_t v) {
  Reg r = NewReg(RegType::kValue);
  Instr i;
  i.op = Opcode::kConstInt;
  i.dst = r.id;
  i.imm_int = v;
  Push(std::move(i));
  return r;
}

Reg FunctionBuilder::ConstDouble(double v) {
  Reg r = NewReg(RegType::kValue);
  Instr i;
  i.op = Opcode::kConstDouble;
  i.dst = r.id;
  i.imm_double = v;
  Push(std::move(i));
  return r;
}

Reg FunctionBuilder::ConstStr(std::string v) {
  Reg r = NewReg(RegType::kValue);
  Instr i;
  i.op = Opcode::kConstStr;
  i.dst = r.id;
  i.imm_str = std::move(v);
  Push(std::move(i));
  return r;
}

Reg FunctionBuilder::ConstNull() {
  Reg r = NewReg(RegType::kValue);
  Instr i;
  i.op = Opcode::kConstNull;
  i.dst = r.id;
  Push(std::move(i));
  return r;
}

namespace {
Instr Binary(Opcode op, int dst, int a, int b) {
  Instr i;
  i.op = op;
  i.dst = dst;
  i.src0 = a;
  i.src1 = b;
  return i;
}
Instr Unary(Opcode op, int dst, int a) {
  Instr i;
  i.op = op;
  i.dst = dst;
  i.src0 = a;
  return i;
}
}  // namespace

#define BB_BINOP(NAME, OP)                        \
  Reg FunctionBuilder::NAME(Reg a, Reg b) {       \
    Reg r = NewReg(RegType::kValue);              \
    Push(Binary(Opcode::OP, r.id, a.id, b.id));   \
    return r;                                     \
  }

BB_BINOP(Add, kAdd)
BB_BINOP(Sub, kSub)
BB_BINOP(Mul, kMul)
BB_BINOP(Div, kDiv)
BB_BINOP(Mod, kMod)
BB_BINOP(CmpLt, kCmpLt)
BB_BINOP(CmpLe, kCmpLe)
BB_BINOP(CmpGt, kCmpGt)
BB_BINOP(CmpGe, kCmpGe)
BB_BINOP(CmpEq, kCmpEq)
BB_BINOP(CmpNe, kCmpNe)
BB_BINOP(And, kAnd)
BB_BINOP(Or, kOr)
BB_BINOP(StrConcat, kStrConcat)
BB_BINOP(StrContains, kStrContains)

#undef BB_BINOP

Reg FunctionBuilder::Move(Reg a) {
  Reg r = NewReg(RegType::kValue);
  Push(Unary(Opcode::kMove, r.id, a.id));
  return r;
}

void FunctionBuilder::AccumAdd(Reg dst, Reg src) {
  Push(Binary(Opcode::kAdd, dst.id, dst.id, src.id));
}

void FunctionBuilder::Assign(Reg dst, Reg src) {
  Push(Unary(Opcode::kMove, dst.id, src.id));
}

Reg FunctionBuilder::Neg(Reg a) {
  Reg r = NewReg(RegType::kValue);
  Push(Unary(Opcode::kNeg, r.id, a.id));
  return r;
}

Reg FunctionBuilder::Not(Reg a) {
  Reg r = NewReg(RegType::kValue);
  Push(Unary(Opcode::kNot, r.id, a.id));
  return r;
}

Reg FunctionBuilder::StrLen(Reg a) {
  Reg r = NewReg(RegType::kValue);
  Push(Unary(Opcode::kStrLen, r.id, a.id));
  return r;
}

Reg FunctionBuilder::StrHashMod(Reg a, int64_t mod) {
  Reg r = NewReg(RegType::kValue);
  Instr i = Unary(Opcode::kStrHashMod, r.id, a.id);
  i.imm_int = mod;
  Push(std::move(i));
  return r;
}

Reg FunctionBuilder::GetField(Reg rec, int index) {
  Reg r = NewReg(RegType::kValue);
  Instr i;
  i.op = Opcode::kGetField;
  i.dst = r.id;
  i.src0 = rec.id;
  i.imm_int = index;
  Push(std::move(i));
  return r;
}

Reg FunctionBuilder::GetInputField(int pos) {
  Reg r = NewReg(RegType::kValue);
  Instr i;
  i.op = Opcode::kGetInputField;
  i.dst = r.id;
  i.imm_int = pos;
  Push(std::move(i));
  return r;
}

Reg FunctionBuilder::GetFieldDyn(Reg rec, Reg index) {
  Reg r = NewReg(RegType::kValue);
  Instr i;
  i.op = Opcode::kGetField;
  i.dst = r.id;
  i.src0 = rec.id;
  i.src1 = index.id;
  i.index_is_reg = true;
  Push(std::move(i));
  return r;
}

void FunctionBuilder::SetField(Reg rec, int index, Reg value) {
  Instr i;
  i.op = Opcode::kSetField;
  i.dst = rec.id;
  i.src0 = value.id;
  i.imm_int = index;
  Push(std::move(i));
}

void FunctionBuilder::SetFieldDyn(Reg rec, Reg index, Reg value) {
  Instr i;
  i.op = Opcode::kSetField;
  i.dst = rec.id;
  i.src0 = value.id;
  i.src1 = index.id;
  i.index_is_reg = true;
  Push(std::move(i));
}

Reg FunctionBuilder::Copy(Reg rec) {
  Reg r = NewReg(RegType::kRecord);
  Push(Unary(Opcode::kCopyRecord, r.id, rec.id));
  return r;
}

Reg FunctionBuilder::NewRecord() {
  Reg r = NewReg(RegType::kRecord);
  Instr i;
  i.op = Opcode::kNewRecord;
  i.dst = r.id;
  Push(std::move(i));
  return r;
}

Reg FunctionBuilder::Concat(Reg a, Reg b) {
  Reg r = NewReg(RegType::kRecord);
  Push(Binary(Opcode::kConcatRecords, r.id, a.id, b.id));
  return r;
}

void FunctionBuilder::Emit(Reg rec) {
  Instr i;
  i.op = Opcode::kEmit;
  i.src0 = rec.id;
  Push(std::move(i));
}

Label FunctionBuilder::NewLabel() {
  label_positions_.push_back(-1);
  return Label{static_cast<int>(label_positions_.size()) - 1};
}

void FunctionBuilder::Bind(Label label) {
  label_positions_[label.id] = static_cast<int>(fn_.instrs_.size());
}

void FunctionBuilder::Goto(Label label) {
  Instr i;
  i.op = Opcode::kGoto;
  fixups_.emplace_back(static_cast<int>(fn_.instrs_.size()), label.id);
  Push(std::move(i));
}

void FunctionBuilder::BranchIfTrue(Reg cond, Label label) {
  Instr i;
  i.op = Opcode::kBranchIfTrue;
  i.src0 = cond.id;
  fixups_.emplace_back(static_cast<int>(fn_.instrs_.size()), label.id);
  Push(std::move(i));
}

void FunctionBuilder::BranchIfFalse(Reg cond, Label label) {
  Instr i;
  i.op = Opcode::kBranchIfFalse;
  i.src0 = cond.id;
  fixups_.emplace_back(static_cast<int>(fn_.instrs_.size()), label.id);
  Push(std::move(i));
}

void FunctionBuilder::Return() {
  Instr i;
  i.op = Opcode::kReturn;
  Push(std::move(i));
}

void FunctionBuilder::CpuBurn(int64_t units) {
  Instr i;
  i.op = Opcode::kCpuBurn;
  i.imm_int = units;
  Push(std::move(i));
}

Status FunctionBuilder::Verify() const {
  const auto& instrs = fn_.instrs_;
  const int n = static_cast<int>(instrs.size());
  if (n == 0) return Status::InvalidArgument("empty function " + fn_.name_);
  if (instrs.back().op != Opcode::kReturn &&
      instrs.back().op != Opcode::kGoto) {
    return Status::InvalidArgument("function " + fn_.name_ +
                                   " must end in return or goto");
  }
  auto check_reg = [&](int reg, RegType want, const char* what) -> Status {
    if (reg < 0 || reg >= fn_.num_registers()) {
      return Status::InvalidArgument(std::string("bad register in ") + what);
    }
    if (fn_.reg_types_[reg] != want) {
      return Status::InvalidArgument(std::string("register type mismatch in ") +
                                     what + " of " + fn_.name_);
    }
    return Status::OK();
  };
  for (int idx = 0; idx < n; ++idx) {
    const Instr& i = instrs[idx];
    switch (i.op) {
      case Opcode::kGoto:
      case Opcode::kBranchIfTrue:
      case Opcode::kBranchIfFalse:
        if (i.target < 0 || i.target > n) {
          return Status::InvalidArgument("unresolved branch target in " +
                                         fn_.name_);
        }
        if (i.op != Opcode::kGoto) {
          BLACKBOX_RETURN_NOT_OK(check_reg(i.src0, RegType::kValue, "branch"));
        }
        break;
      case Opcode::kGetField:
        BLACKBOX_RETURN_NOT_OK(check_reg(i.src0, RegType::kRecord, "getField"));
        if (i.index_is_reg) {
          BLACKBOX_RETURN_NOT_OK(
              check_reg(i.src1, RegType::kValue, "getField index"));
        }
        break;
      case Opcode::kSetField:
        BLACKBOX_RETURN_NOT_OK(check_reg(i.dst, RegType::kRecord, "setField"));
        BLACKBOX_RETURN_NOT_OK(
            check_reg(i.src0, RegType::kValue, "setField value"));
        if (i.index_is_reg) {
          BLACKBOX_RETURN_NOT_OK(
              check_reg(i.src1, RegType::kValue, "setField index"));
        }
        break;
      case Opcode::kCopyRecord:
      case Opcode::kEmit:
        BLACKBOX_RETURN_NOT_OK(
            check_reg(i.src0, RegType::kRecord, "record operand"));
        break;
      case Opcode::kConcatRecords:
        BLACKBOX_RETURN_NOT_OK(check_reg(i.src0, RegType::kRecord, "concat"));
        BLACKBOX_RETURN_NOT_OK(check_reg(i.src1, RegType::kRecord, "concat"));
        break;
      case Opcode::kInputRecord:
      case Opcode::kInputAt:
      case Opcode::kInputCount:
        if (i.imm_int < 0 || i.imm_int >= fn_.num_inputs_) {
          return Status::InvalidArgument("input index out of range in " +
                                         fn_.name_);
        }
        break;
      case Opcode::kGetInputField:
        if (i.imm_int < 0) {
          return Status::InvalidArgument(
              "negative get_input_field position in " + fn_.name_);
        }
        break;
      default:
        break;
    }
  }
  return Status::OK();
}

StatusOr<Function> FunctionBuilder::Build() {
  if (built_) return Status::Internal("Build() called twice");
  for (const auto& [instr_idx, label_id] : fixups_) {
    int pos = label_positions_[label_id];
    if (pos < 0) {
      return Status::InvalidArgument("unbound label in " + fn_.name_);
    }
    fn_.instrs_[instr_idx].target = pos;
  }
  BLACKBOX_RETURN_NOT_OK(Verify());
  DeriveRecordLifetimes();
  built_ = true;
  return fn_;
}

void FunctionBuilder::DeriveRecordLifetimes() {
  const std::vector<Instr>& instrs = fn_.instrs_;
  const int n = static_cast<int>(instrs.size());
  const int regs = fn_.num_registers();
  fn_.borrows_.assign(static_cast<size_t>(regs), 1);
  for (const Instr& i : instrs) {
    if (i.op == Opcode::kSetField) fn_.borrows_[i.dst] = 0;
  }
  auto successors = [&](int pc, auto&& visit) {
    const Instr& i = instrs[pc];
    if (i.op == Opcode::kReturn) return;
    if (i.op != Opcode::kGoto) visit(pc + 1);
    if (i.target >= 0) visit(i.target);
  };

  // Backward liveness over record registers only, one bitset per
  // instruction: live[pc] holds the registers some path from pc reads before
  // redefining them; live[n] is the exit, where nothing is live. Loops branch
  // backwards, so the pass repeats until nothing changes.
  std::vector<int> slot(static_cast<size_t>(regs), -1);
  size_t num_recs = 0;
  for (int r = 0; r < regs; ++r) {
    if (fn_.reg_types_[r] == RegType::kRecord) {
      slot[r] = static_cast<int>(num_recs++);
    }
  }
  const size_t words = (num_recs + 63) / 64;
  std::vector<uint64_t> live((static_cast<size_t>(n) + 1) * words, 0);
  std::vector<uint64_t> cur(words);
  auto live_at = [&](int pc) {
    return live.data() + static_cast<size_t>(pc) * words;
  };
  auto live_after = [&](int pc, uint64_t* into) {
    std::fill(into, into + words, 0);
    successors(pc, [&](int succ) {
      const uint64_t* s = live_at(succ);
      for (size_t w = 0; w < words; ++w) into[w] |= s[w];
    });
  };
  auto set = [&](int reg, bool on) {
    int s = slot[reg];
    uint64_t bit = uint64_t{1} << (s % 64);
    if (on) {
      cur[s / 64] |= bit;
    } else {
      cur[s / 64] &= ~bit;
    }
  };
  auto is_live = [&](int reg) {
    int s = slot[reg];
    return ((cur[s / 64] >> (s % 64)) & 1) != 0;
  };
  for (bool changed = true; changed;) {
    changed = false;
    for (int pc = n - 1; pc >= 0; --pc) {
      const Instr& i = instrs[pc];
      live_after(pc, cur.data());
      switch (i.op) {
        case Opcode::kInputRecord:
        case Opcode::kInputAt:
        case Opcode::kNewRecord:
          set(i.dst, false);
          break;
        case Opcode::kCopyRecord:
          set(i.dst, false);
          set(i.src0, true);
          break;
        case Opcode::kConcatRecords:
          set(i.dst, false);
          set(i.src0, true);
          set(i.src1, true);
          break;
        case Opcode::kGetField:
        case Opcode::kEmit:
          set(i.src0, true);
          break;
        case Opcode::kSetField:  // read-modify-write: a use, not a redefinition
          set(i.dst, true);
          break;
        default:
          break;
      }
      uint64_t* at = live_at(pc);
      if (!std::equal(cur.begin(), cur.end(), at)) {
        std::copy(cur.begin(), cur.end(), at);
        changed = true;
      }
    }
  }

  // Donated inputs, one bit per input (none past 64 inputs): from[r] holds
  // the inputs a borrowing register r may point into, and loads[pc] the
  // inputs some path from pc loads, copying or borrowing.
  auto is_load = [](const Instr& i) {
    return i.op == Opcode::kInputRecord || i.op == Opcode::kInputAt;
  };
  std::vector<uint64_t> from(static_cast<size_t>(regs), 0);
  std::vector<uint64_t> loads(static_cast<size_t>(n) + 1, 0);
  auto loads_after = [&](int pc) {
    uint64_t after = 0;
    successors(pc, [&](int succ) { after |= loads[succ]; });
    return after;
  };
  if (fn_.num_inputs_ <= 64) {
    for (const Instr& i : instrs) {
      if (is_load(i) && fn_.borrows_[i.dst]) {
        from[i.dst] |= uint64_t{1} << i.imm_int;
      }
    }
    for (bool changed = true; changed;) {
      changed = false;
      for (int pc = n - 1; pc >= 0; --pc) {
        uint64_t at = loads_after(pc);
        if (is_load(instrs[pc])) at |= uint64_t{1} << instrs[pc].imm_int;
        if (at != loads[pc]) {
          loads[pc] = at;
          changed = true;
        }
      }
    }
  }

  fn_.moves_.assign(static_cast<size_t>(n), 0);
  fn_.consumes_.assign(static_cast<size_t>(n), 0);
  for (int pc = 0; pc < n; ++pc) {
    const Instr& i = instrs[pc];
    if (i.op != Opcode::kCopyRecord && i.op != Opcode::kEmit &&
        i.op != Opcode::kConcatRecords) {
      continue;
    }
    live_after(pc, cur.data());
    if (i.op == Opcode::kEmit) fn_.moves_[pc] = !is_live(i.src0);
    const int operands[2] = {
        i.src0, i.op == Opcode::kConcatRecords ? i.src1 : -1};
    for (int k = 0; k < 2; ++k) {
      const int reg = operands[k];
      if (reg < 0 || from[reg] == 0 || is_live(reg) ||
          (from[reg] & loads_after(pc)) != 0) {
        continue;
      }
      const int other = operands[1 - k];
      bool shared = other >= 0 && (from[other] & from[reg]) != 0;
      for (int r = 0; r < regs && !shared; ++r) {
        shared = slot[r] >= 0 && is_live(r) && (from[r] & from[reg]) != 0;
      }
      if (!shared) fn_.consumes_[pc] |= static_cast<uint8_t>(1u << k);
    }
  }
}

}  // namespace tac
}  // namespace blackbox
