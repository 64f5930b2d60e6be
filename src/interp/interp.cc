#include "interp/interp.h"

#include <atomic>
#include <cmath>
#include <functional>

#include "record/column_view.h"

namespace blackbox {
namespace interp {

namespace {

using tac::Opcode;

/// Shared sink so kCpuBurn work is not optimized away. Relaxed atomic: the
/// value is meaningless, but partition tasks burn concurrently and a plain
/// (or volatile) global would be a data race.
std::atomic<uint64_t> g_burn_sink{0};

int64_t ValueAsBool(const Value& v) {
  switch (v.type()) {
    case ValueType::kInt:
      return v.AsInt() != 0;
    case ValueType::kDouble:
      return v.AsDouble() != 0.0;
    case ValueType::kNull:
      return 0;
    case ValueType::kString:
      return !v.AsString().empty();
  }
  return 0;
}

/// A string operand's bytes; any other operand contributes none.
std::string_view StringOrEmpty(const Value& v) {
  return v.type() == ValueType::kString ? v.AsString() : std::string_view();
}

Value Arith(Opcode op, const Value& a, const Value& b) {
  if (a.type() == ValueType::kInt && b.type() == ValueType::kInt) {
    int64_t x = a.AsInt(), y = b.AsInt();
    switch (op) {
      case Opcode::kAdd: return Value(x + y);
      case Opcode::kSub: return Value(x - y);
      case Opcode::kMul: return Value(x * y);
      case Opcode::kDiv: return Value(y == 0 ? int64_t{0} : x / y);
      case Opcode::kMod: return Value(y == 0 ? int64_t{0} : x % y);
      default: break;
    }
  }
  double x = a.ToDouble(), y = b.ToDouble();
  switch (op) {
    case Opcode::kAdd: return Value(x + y);
    case Opcode::kSub: return Value(x - y);
    case Opcode::kMul: return Value(x * y);
    case Opcode::kDiv: return Value(y == 0.0 ? 0.0 : x / y);
    case Opcode::kMod: return Value(y == 0.0 ? 0.0 : std::fmod(x, y));
    default: break;
  }
  return Value();
}

int Compare(const Value& a, const Value& b) {
  // Numeric cross-type comparison; strings compare lexicographically.
  if (a.type() == ValueType::kString && b.type() == ValueType::kString) {
    return a.AsString().compare(b.AsString());
  }
  double x = a.ToDouble(), y = b.ToDouble();
  if (x < y) return -1;
  if (x > y) return 1;
  return 0;
}

}  // namespace

Status Interpreter::Run(const CallInputs& inputs,
                        const FieldTranslation& translation,
                        std::vector<Record>* out, RunStats* stats) const {
  CallState state;
  return Run(inputs, translation, out, stats, &state);
}

Status Interpreter::Run(const CallInputs& inputs,
                        const FieldTranslation& translation,
                        std::vector<Record>* out, RunStats* stats,
                        CallState* state) const {
  Workspace& ws = state->ws_;
  const size_t registers = static_cast<size_t>(fn_->num_registers());
  if (ws.vals.size() != registers) {
    ws.Resize(registers);
  } else {
    ws.Reset();
  }
  const int n = static_cast<int>(fn_->instrs().size());
  return RunInternal(inputs, translation, out, stats, &ws, 0, n, nullptr);
}

Status Interpreter::RunBatch(const std::vector<Record>& in,
                             const FieldTranslation& translation,
                             std::vector<Record>* out,
                             RunStats* stats) const {
  Workspace ws;
  ws.Resize(fn_->num_registers());
  CallInputs ci;
  ci.groups.resize(1);
  ci.groups[0].resize(1);
  const int n = static_cast<int>(fn_->instrs().size());
  for (size_t i = 0; i < in.size(); ++i) {
    if (cancel_ != nullptr && i % kCancelCheckStride == 0) {
      BLACKBOX_RETURN_NOT_OK(cancel_->Check());
    }
    ci.groups[0][0] = &in[i];
    ws.emitted.clear();
    BLACKBOX_RETURN_NOT_OK(
        RunInternal(ci, translation, &ws.emitted, stats, &ws, 0, n, nullptr));
    for (Record& r : ws.emitted) out->push_back(std::move(r));
    if (i + 1 < in.size()) ws.Reset();
  }
  return Status::OK();
}

Status Interpreter::RunFusedChain(const std::vector<Record>& in,
                                  const ColumnView& cols,
                                  const FieldTranslation& translation,
                                  int body_start, std::vector<Record>* out,
                                  RunStats* stats, ChainState* state) const {
  Workspace& ws = state->ws_;
  if (ws.vals.size() != static_cast<size_t>(fn_->num_registers())) {
    ws.Resize(fn_->num_registers());
  }
  CallInputs ci;
  ci.groups.resize(1);
  ci.groups[0].resize(1);
  const int n = static_cast<int>(fn_->instrs().size());
  if (!state->preamble_done_) {
    // Constant preamble: once per chain-runner lifetime. It touches no
    // input, but RunInternal wants a non-null input slot.
    Record empty;
    ci.groups[0][0] = &empty;
    BLACKBOX_RETURN_NOT_OK(RunInternal(ci, translation, out, stats, &ws, 0,
                                       body_start, nullptr));
    state->preamble_done_ = true;
  }
  // No ws.Reset() between rows: fused bodies write every register before
  // reading it on the path that reads it (tac/fuse.h), and preamble
  // constants must persist.
  for (size_t r = 0; r < in.size(); ++r) {
    if (cancel_ != nullptr && r % kCancelCheckStride == 0) {
      BLACKBOX_RETURN_NOT_OK(cancel_->Check());
    }
    ci.groups[0][0] = &in[r];
    FusedInput fi{&cols, r};
    BLACKBOX_RETURN_NOT_OK(RunInternal(ci, translation, out, stats, &ws,
                                       body_start, n, &fi));
  }
  return Status::OK();
}

Status Interpreter::RunInternal(const CallInputs& inputs,
                                const FieldTranslation& translation,
                                std::vector<Record>* out, RunStats* stats,
                                Workspace* ws, int start_pc, int end_pc,
                                const FusedInput* fused) const {
  const auto& instrs = fn_->instrs();
  std::vector<Value>& vals = ws->vals;
  std::vector<Record>& recs = ws->recs;

  auto input_pos = [&](int input, int local) -> int {
    if (translation.input_maps.empty()) return local;
    const auto& map = translation.input_maps[input];
    if (local < 0 || local >= static_cast<int>(map.size())) return -1;
    return map[local];
  };
  auto output_pos = [&](int local) -> int {
    if (translation.output_map.empty()) return local;
    if (local < 0 || local >= static_cast<int>(translation.output_map.size())) {
      return -1;
    }
    return translation.output_map[local];
  };

  // Which input each record register currently carries (-1 = output record).
  // Needed to translate field indices: reads of records loaded from input i
  // use input i's map; reads of constructed output records use the output
  // map. Copies inherit the source record's provenance.
  std::vector<int>& rec_input = ws->rec_input;

  int64_t steps = 0;
  int pc = start_pc;
  while (pc < end_pc) {
    if (++steps > kDefaultStepLimit) {
      return Status::Internal("UDF " + fn_->name() + " exceeded step limit");
    }
    const tac::Instr& i = instrs[pc];
    int next = pc + 1;
    switch (i.op) {
      case Opcode::kConstInt:
        vals[i.dst] = Value(i.imm_int);
        break;
      case Opcode::kConstDouble:
        vals[i.dst] = Value(i.imm_double);
        break;
      case Opcode::kConstStr:
        vals[i.dst] = Value(i.imm_str);
        break;
      case Opcode::kConstNull:
        vals[i.dst] = Value::Null();
        break;
      case Opcode::kMove:
        vals[i.dst] = vals[i.src0];
        break;
      case Opcode::kAdd:
      case Opcode::kSub:
      case Opcode::kMul:
      case Opcode::kDiv:
      case Opcode::kMod:
        vals[i.dst] = Arith(i.op, vals[i.src0], vals[i.src1]);
        break;
      case Opcode::kNeg:
        if (vals[i.src0].type() == ValueType::kInt) {
          vals[i.dst] = Value(-vals[i.src0].AsInt());
        } else {
          vals[i.dst] = Value(-vals[i.src0].ToDouble());
        }
        break;
      case Opcode::kCmpLt:
        vals[i.dst] = Value(int64_t{Compare(vals[i.src0], vals[i.src1]) < 0});
        break;
      case Opcode::kCmpLe:
        vals[i.dst] = Value(int64_t{Compare(vals[i.src0], vals[i.src1]) <= 0});
        break;
      case Opcode::kCmpGt:
        vals[i.dst] = Value(int64_t{Compare(vals[i.src0], vals[i.src1]) > 0});
        break;
      case Opcode::kCmpGe:
        vals[i.dst] = Value(int64_t{Compare(vals[i.src0], vals[i.src1]) >= 0});
        break;
      case Opcode::kCmpEq:
        vals[i.dst] = Value(int64_t{vals[i.src0] == vals[i.src1]});
        break;
      case Opcode::kCmpNe:
        vals[i.dst] = Value(int64_t{vals[i.src0] != vals[i.src1]});
        break;
      case Opcode::kAnd:
        vals[i.dst] =
            Value(int64_t{ValueAsBool(vals[i.src0]) && ValueAsBool(vals[i.src1])});
        break;
      case Opcode::kOr:
        vals[i.dst] =
            Value(int64_t{ValueAsBool(vals[i.src0]) || ValueAsBool(vals[i.src1])});
        break;
      case Opcode::kNot:
        vals[i.dst] = Value(int64_t{!ValueAsBool(vals[i.src0])});
        break;
      case Opcode::kStrLen:
        vals[i.dst] = Value(static_cast<int64_t>(
            vals[i.src0].type() == ValueType::kString
                ? vals[i.src0].AsString().size()
                : 0));
        break;
      case Opcode::kStrConcat:
        vals[i.dst] = Value::Concat(StringOrEmpty(vals[i.src0]),
                                    StringOrEmpty(vals[i.src1]));
        break;
      case Opcode::kStrContains: {
        bool hit = false;
        if (vals[i.src0].type() == ValueType::kString &&
            vals[i.src1].type() == ValueType::kString) {
          hit = vals[i.src0].AsString().find(vals[i.src1].AsString()) !=
                std::string_view::npos;
        }
        vals[i.dst] = Value(int64_t{hit});
        break;
      }
      case Opcode::kStrHashMod: {
        uint64_t h = vals[i.src0].Hash();
        int64_t mod = i.imm_int <= 0 ? 1 : i.imm_int;
        vals[i.dst] = Value(static_cast<int64_t>(h % static_cast<uint64_t>(mod)));
        break;
      }
      case Opcode::kGoto:
        next = i.target;
        break;
      case Opcode::kBranchIfTrue:
        if (ValueAsBool(vals[i.src0])) next = i.target;
        break;
      case Opcode::kBranchIfFalse:
        if (!ValueAsBool(vals[i.src0])) next = i.target;
        break;
      case Opcode::kReturn:
        if (stats) stats->instructions += steps;
        return Status::OK();
      case Opcode::kGetField: {
        int local = i.index_is_reg
                        ? static_cast<int>(vals[i.src1].ToDouble())
                        : static_cast<int>(i.imm_int);
        const Record& rec = recs[i.src0];
        int provenance = rec_input[i.src0];
        int pos;
        if (provenance >= 0) {
          pos = input_pos(provenance, local);
        } else {
          pos = output_pos(local);
        }
        if (pos < 0 || pos >= static_cast<int>(rec.num_fields())) {
          vals[i.dst] = Value::Null();
        } else {
          vals[i.dst] = rec.field(pos);
        }
        break;
      }
      case Opcode::kSetField: {
        int local = i.index_is_reg
                        ? static_cast<int>(vals[i.src1].ToDouble())
                        : static_cast<int>(i.imm_int);
        int provenance = rec_input[i.dst];
        int pos = provenance >= 0 ? input_pos(provenance, local)
                                  : output_pos(local);
        if (pos < 0) {
          return Status::OutOfRange("setField position out of range in " +
                                    fn_->name());
        }
        recs[i.dst].SetField(pos, vals[i.src0]);
        break;
      }
      case Opcode::kCopyRecord:
        recs[i.dst] = recs[i.src0];
        rec_input[i.dst] = rec_input[i.src0];
        break;
      case Opcode::kNewRecord: {
        Record r;
        if (translation.global_width > 0) {
          // Pre-size to the global record so emitted records are uniform.
          r.SetField(translation.global_width - 1, Value::Null());
        }
        recs[i.dst] = std::move(r);
        rec_input[i.dst] = -1;
        break;
      }
      case Opcode::kConcatRecords: {
        if (translation.concat_positions.empty()) {
          recs[i.dst] = Record::Concat(recs[i.src0], recs[i.src1]);
        } else {
          // Global-record merge: take each input's owned positions.
          Record r;
          if (translation.global_width > 0) {
            r.SetField(translation.global_width - 1, Value::Null());
          }
          const Record& a = recs[i.src0];
          const Record& b = recs[i.src1];
          for (int pos : translation.concat_positions[0]) {
            if (pos < static_cast<int>(a.num_fields())) {
              r.SetField(pos, a.field(pos));
            }
          }
          for (int pos : translation.concat_positions[1]) {
            if (pos < static_cast<int>(b.num_fields())) {
              r.SetField(pos, b.field(pos));
            }
          }
          recs[i.dst] = std::move(r);
        }
        rec_input[i.dst] = -1;
        break;
      }
      case Opcode::kEmit: {
        Record r = recs[i.src0];
        if (translation.global_width > 0 &&
            static_cast<int>(r.num_fields()) < translation.global_width) {
          r.SetField(translation.global_width - 1, Value::Null());
        }
        out->push_back(std::move(r));
        if (stats) stats->emits++;
        break;
      }
      case Opcode::kInputRecord: {
        const auto& group = inputs.groups[i.imm_int];
        if (group.empty()) {
          return Status::Internal("empty RAT input in " + fn_->name());
        }
        recs[i.dst] = *group[0];
        rec_input[i.dst] = static_cast<int>(i.imm_int);
        break;
      }
      case Opcode::kGetInputField:
        if (fused == nullptr) {
          return Status::Internal("get_input_field outside a fused chain in " +
                                  fn_->name());
        }
        vals[i.dst] = fused->cols->ValueAt(static_cast<size_t>(i.imm_int),
                                           fused->row);
        break;
      case Opcode::kInputCount:
        vals[i.dst] = Value(
            static_cast<int64_t>(inputs.groups[i.imm_int].size()));
        break;
      case Opcode::kInputAt: {
        const auto& group = inputs.groups[i.imm_int];
        int64_t pos = static_cast<int64_t>(vals[i.src0].ToDouble());
        if (pos < 0 || pos >= static_cast<int64_t>(group.size())) {
          return Status::OutOfRange("input_at out of range in " + fn_->name());
        }
        recs[i.dst] = *group[pos];
        rec_input[i.dst] = static_cast<int>(i.imm_int);
        break;
      }
      case Opcode::kCpuBurn: {
        uint64_t acc = g_burn_sink.load(std::memory_order_relaxed);
        for (int64_t k = 0; k < i.imm_int; ++k) {
          acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
        }
        g_burn_sink.store(acc, std::memory_order_relaxed);
        if (stats) stats->cpu_burn_units += i.imm_int;
        break;
      }
    }
    pc = next;
  }
  if (stats) stats->instructions += steps;
  return Status::OK();
}

}  // namespace interp
}  // namespace blackbox
