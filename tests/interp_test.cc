#include "interp/interp.h"

#include <cstdlib>
#include <new>
#include <string>

#include <gtest/gtest.h>

namespace {

/// Heap allocations this thread makes while counting is on: the replacement
/// operator new below counts them for the record-lifetime tests.
thread_local bool t_counting = false;
thread_local long t_allocations = 0;

}  // namespace

// Out of line, so the compiler never pairs an inlined free() with a
// new-expression (-Wmismatched-new-delete). The array forms are replaced too:
// a sanitizer runtime supplies its own, which would bypass the count.
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (t_counting) ++t_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) {
  return ::operator new(n);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace blackbox {
namespace interp {
namespace {

using tac::FunctionBuilder;
using tac::Label;
using tac::Reg;
using tac::UdfKind;

tac::Function MustBuild(FunctionBuilder&& b) {
  StatusOr<tac::Function> fn = b.Build();
  EXPECT_TRUE(fn.ok()) << fn.status().ToString();
  return std::move(fn).value();
}

std::vector<Record> RunRat(const tac::Function& fn, const Record& input,
                           const FieldTranslation& t = {}) {
  Interpreter interp(&fn);
  CallInputs ci;
  ci.groups = {{&input}};
  std::vector<Record> out;
  Status s = interp.Run(ci, t, &out);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return out;
}

TEST(Interp, PaperExampleF1AbsoluteValue) {
  // f1 from §3: B := |B|.
  FunctionBuilder b("f1", 1, UdfKind::kRat);
  Reg ir = b.InputRecord(0);
  Reg bval = b.GetField(ir, 1);
  Reg out = b.Copy(ir);
  Label done = b.NewLabel();
  b.BranchIfTrue(b.CmpGe(bval, b.ConstInt(0)), done);
  b.SetField(out, 1, b.Neg(bval));
  b.Bind(done);
  b.Emit(out);
  b.Return();
  tac::Function f1 = MustBuild(std::move(b));

  Record in({Value(int64_t{2}), Value(int64_t{-3})});
  std::vector<Record> out1 = RunRat(f1, in);
  ASSERT_EQ(out1.size(), 1u);
  EXPECT_EQ(out1[0].field(0).AsInt(), 2);
  EXPECT_EQ(out1[0].field(1).AsInt(), 3);

  Record pos({Value(int64_t{2}), Value(int64_t{3})});
  std::vector<Record> out2 = RunRat(f1, pos);
  ASSERT_EQ(out2.size(), 1u);
  EXPECT_EQ(out2[0].field(1).AsInt(), 3);
}

TEST(Interp, FilterEmitsNothingForNegative) {
  FunctionBuilder b("f2", 1, UdfKind::kRat);
  Reg ir = b.InputRecord(0);
  Reg a = b.GetField(ir, 0);
  Label skip = b.NewLabel();
  b.BranchIfTrue(b.CmpLt(a, b.ConstInt(0)), skip);
  b.Emit(b.Copy(ir));
  b.Bind(skip);
  b.Return();
  tac::Function f2 = MustBuild(std::move(b));

  EXPECT_EQ(RunRat(f2, Record({Value(int64_t{-2}), Value(int64_t{1})})).size(),
            0u);
  EXPECT_EQ(RunRat(f2, Record({Value(int64_t{2}), Value(int64_t{1})})).size(),
            1u);
}

TEST(Interp, ArithmeticIntAndDouble) {
  FunctionBuilder b("math", 1, UdfKind::kRat);
  Reg ir = b.InputRecord(0);
  Reg x = b.GetField(ir, 0);
  Reg y = b.GetField(ir, 1);
  Reg orec = b.Copy(ir);
  b.SetField(orec, 2, b.Add(x, y));
  b.SetField(orec, 3, b.Mul(x, y));
  b.SetField(orec, 4, b.Div(x, y));
  b.SetField(orec, 5, b.Mod(x, y));
  b.Emit(orec);
  b.Return();
  tac::Function fn = MustBuild(std::move(b));
  std::vector<Record> res =
      RunRat(fn, Record({Value(int64_t{7}), Value(int64_t{2})}));
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].field(2).AsInt(), 9);
  EXPECT_EQ(res[0].field(3).AsInt(), 14);
  EXPECT_EQ(res[0].field(4).AsInt(), 3);
  EXPECT_EQ(res[0].field(5).AsInt(), 1);
}

TEST(Interp, DivisionByZeroYieldsZeroNotCrash) {
  FunctionBuilder b("div0", 1, UdfKind::kRat);
  Reg ir = b.InputRecord(0);
  Reg x = b.GetField(ir, 0);
  Reg orec = b.Copy(ir);
  b.SetField(orec, 1, b.Div(x, b.ConstInt(0)));
  b.Emit(orec);
  b.Return();
  std::vector<Record> res =
      RunRat(MustBuild(std::move(b)), Record({Value(int64_t{5})}));
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].field(1).AsInt(), 0);
}

TEST(Interp, StringOps) {
  FunctionBuilder b("strs", 1, UdfKind::kRat);
  Reg ir = b.InputRecord(0);
  Reg s = b.GetField(ir, 0);
  Reg orec = b.Copy(ir);
  b.SetField(orec, 1, b.StrLen(s));
  b.SetField(orec, 2, b.StrContains(s, b.ConstStr("gene")));
  b.SetField(orec, 3, b.StrConcat(s, b.ConstStr("!")));
  b.Emit(orec);
  b.Return();
  std::vector<Record> res = RunRat(MustBuild(std::move(b)),
                                   Record({Value(std::string("a gene b"))}));
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].field(1).AsInt(), 8);
  EXPECT_EQ(res[0].field(2).AsInt(), 1);
  EXPECT_EQ(res[0].field(3).AsString(), "a gene b!");
}

TEST(Interp, KatLoopSumsGroup) {
  FunctionBuilder b("sum", 1, UdfKind::kKat);
  Reg n = b.InputCount(0);
  Reg i = b.ConstInt(0);
  Reg sum = b.ConstInt(0);
  Label loop = b.NewLabel();
  Label done = b.NewLabel();
  b.Bind(loop);
  b.BranchIfFalse(b.CmpLt(i, n), done);
  Reg r = b.InputAt(0, i);
  b.AccumAdd(sum, b.GetField(r, 1));
  b.AccumAdd(i, b.ConstInt(1));
  b.Goto(loop);
  b.Bind(done);
  Reg orec = b.Copy(b.InputAt(0, b.ConstInt(0)));
  b.SetField(orec, 2, sum);
  b.Emit(orec);
  b.Return();
  tac::Function fn = MustBuild(std::move(b));

  Record a({Value(int64_t{1}), Value(int64_t{10})});
  Record bb({Value(int64_t{1}), Value(int64_t{32})});
  Interpreter interp(&fn);
  CallInputs ci;
  ci.groups = {{&a, &bb}};
  std::vector<Record> out;
  ASSERT_TRUE(interp.Run(ci, {}, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].field(2).AsInt(), 42);
}

TEST(Interp, FieldTranslationRedirectsAccesses) {
  // The UDF reads local field 0 and writes local field 1; the redirection
  // map places them at global positions 3 and 5 of a width-6 global record.
  FunctionBuilder b("redirect", 1, UdfKind::kRat);
  Reg ir = b.InputRecord(0);
  Reg v = b.GetField(ir, 0);
  Reg orec = b.Copy(ir);
  b.SetField(orec, 1, b.Add(v, b.ConstInt(1)));
  b.Emit(orec);
  b.Return();
  tac::Function fn = MustBuild(std::move(b));

  FieldTranslation t;
  t.global_width = 6;
  t.input_maps = {{3, 5}};
  t.output_map = {3, 5};

  Record wide;
  wide.SetField(5, Value::Null());
  wide.SetField(3, Value(int64_t{41}));
  std::vector<Record> res = RunRat(fn, wide, t);
  ASSERT_EQ(res.size(), 1u);
  ASSERT_EQ(res[0].num_fields(), 6u);
  EXPECT_EQ(res[0].field(5).AsInt(), 42);
  EXPECT_EQ(res[0].field(3).AsInt(), 41);
}

TEST(Interp, ConcatMergesByOwnedPositions) {
  FunctionBuilder b("join", 2, UdfKind::kRat);
  Reg l = b.InputRecord(0);
  Reg r = b.InputRecord(1);
  b.Emit(b.Concat(l, r));
  b.Return();
  tac::Function fn = MustBuild(std::move(b));

  FieldTranslation t;
  t.global_width = 4;
  t.input_maps = {{0, 1}, {2, 3}};
  t.output_map = {0, 1, 2, 3};
  t.concat_positions = {{0, 1}, {2, 3}};

  Record left;
  left.SetField(3, Value::Null());
  left.SetField(0, Value(int64_t{1}));
  left.SetField(1, Value(int64_t{2}));
  Record right;
  right.SetField(3, Value(int64_t{4}));
  right.SetField(2, Value(int64_t{3}));

  Interpreter interp(&fn);
  CallInputs ci;
  ci.groups = {{&left}, {&right}};
  std::vector<Record> out;
  ASSERT_TRUE(interp.Run(ci, t, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].field(0).AsInt(), 1);
  EXPECT_EQ(out[0].field(1).AsInt(), 2);
  EXPECT_EQ(out[0].field(2).AsInt(), 3);
  EXPECT_EQ(out[0].field(3).AsInt(), 4);
}

TEST(Interp, RunBatchMatchesPerRecordRun) {
  // A filter+expand UDF under a non-trivial translation: batch execution
  // must emit exactly what record-at-a-time execution emits, with the same
  // accumulated stats (the determinism contract for fused chains).
  FunctionBuilder b("fe", 1, UdfKind::kRat);
  Reg ir = b.InputRecord(0);
  Reg v = b.GetField(ir, 0);
  Label skip = b.NewLabel();
  b.BranchIfTrue(b.CmpLt(v, b.ConstInt(0)), skip);
  Reg orec = b.Copy(ir);
  b.SetField(orec, 1, b.Add(v, b.ConstInt(1)));
  b.Emit(orec);
  b.Emit(orec);  // expands: two emits per surviving record
  b.Bind(skip);
  b.Return();
  tac::Function fn = MustBuild(std::move(b));

  FieldTranslation t;
  t.global_width = 4;
  t.input_maps = {{2, 3}};
  t.output_map = {2, 3};

  std::vector<Record> in;
  for (int64_t i = -3; i < 5; ++i) {
    Record wide;
    wide.SetField(3, Value::Null());
    wide.SetField(2, Value(i));
    in.push_back(std::move(wide));
  }

  Interpreter interp(&fn);
  RunStats batch_stats;
  std::vector<Record> out;
  ASSERT_TRUE(interp.RunBatch(in, t, &out, &batch_stats).ok());

  std::vector<Record> expected;
  RunStats serial_stats;
  for (const Record& r : in) {
    CallInputs ci;
    ci.groups = {{&r}};
    ASSERT_TRUE(interp.Run(ci, t, &expected, &serial_stats).ok());
  }
  ASSERT_EQ(out.size(), expected.size());
  EXPECT_EQ(out.size(), 10u);  // 5 surviving records × 2 emits
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(out[i], expected[i]) << "record " << i;
  }
  EXPECT_EQ(batch_stats.instructions, serial_stats.instructions);
  EXPECT_EQ(batch_stats.emits, serial_stats.emits);
}

TEST(Interp, RunBatchResetsWorkspaceBetweenRecords) {
  // The UDF writes a register only on some records and emits a fresh output
  // record built from it. If RunBatch leaked register or record-slot state
  // across records, the "else" path would see the previous record's values.
  FunctionBuilder b("leak", 1, UdfKind::kRat);
  Reg ir = b.InputRecord(0);
  Reg v = b.GetField(ir, 0);
  Reg orec = b.NewRecord();
  Label small = b.NewLabel();
  b.BranchIfFalse(b.CmpGe(v, b.ConstInt(10)), small);
  b.SetField(orec, 0, b.Add(v, b.ConstInt(100)));
  b.Bind(small);
  b.SetField(orec, 1, v);
  b.Emit(orec);
  b.Return();
  tac::Function fn = MustBuild(std::move(b));

  std::vector<Record> in;
  in.push_back(Record({Value(int64_t{42})}));  // takes the >= 10 path
  in.push_back(Record({Value(int64_t{1})}));   // must NOT inherit field 0
  Interpreter interp(&fn);
  std::vector<Record> out;
  ASSERT_TRUE(interp.RunBatch(in, {}, &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].field(0).AsInt(), 142);
  EXPECT_TRUE(out[1].field(0).is_null())
      << "workspace leaked across batch records: " << out[1].ToString();
  EXPECT_EQ(out[1].field(1).AsInt(), 1);
}

/// Runs `calls` once through one reused CallState and once as fresh Run()
/// calls: every call must emit the same records and meter the same RunStats.
void ExpectCallStateMatchesFreshRuns(const tac::Function& fn,
                                     const FieldTranslation& t,
                                     const std::vector<CallInputs>& calls) {
  Interpreter interp(&fn);
  Interpreter::CallState state;
  for (size_t i = 0; i < calls.size(); ++i) {
    std::vector<Record> fresh_out, state_out;
    RunStats fresh_rs, state_rs;
    ASSERT_TRUE(interp.Run(calls[i], t, &fresh_out, &fresh_rs).ok());
    ASSERT_TRUE(interp.Run(calls[i], t, &state_out, &state_rs, &state).ok());
    EXPECT_EQ(state_out, fresh_out) << "call " << i;
    EXPECT_EQ(state_rs.instructions, fresh_rs.instructions) << "call " << i;
    EXPECT_EQ(state_rs.cpu_burn_units, fresh_rs.cpu_burn_units) << "call " << i;
    EXPECT_EQ(state_rs.emits, fresh_rs.emits) << "call " << i;
  }
}

TEST(Interp, CallStateMatchesFreshRunsOnKatGroupsAndMultiEmit) {
  // Sums field 1 over the group, then emits every member with the sum in
  // field 2: the loop registers and the emit count depend on group size.
  FunctionBuilder b("sum_all", 1, UdfKind::kKat);
  Reg n = b.InputCount(0);
  Reg i = b.ConstInt(0);
  Reg sum = b.ConstInt(0);
  Label loop = b.NewLabel();
  Label summed = b.NewLabel();
  b.Bind(loop);
  b.BranchIfFalse(b.CmpLt(i, n), summed);
  b.AccumAdd(sum, b.GetField(b.InputAt(0, i), 1));
  b.AccumAdd(i, b.ConstInt(1));
  b.Goto(loop);
  b.Bind(summed);
  Reg j = b.ConstInt(0);
  Label emit_loop = b.NewLabel();
  Label done = b.NewLabel();
  b.Bind(emit_loop);
  b.BranchIfFalse(b.CmpLt(j, n), done);
  Reg out = b.Copy(b.InputAt(0, j));
  b.SetField(out, 2, sum);
  b.Emit(out);
  b.AccumAdd(j, b.ConstInt(1));
  b.Goto(emit_loop);
  b.Bind(done);
  b.Return();
  tac::Function fn = MustBuild(std::move(b));

  std::vector<Record> records;
  for (int64_t v = 0; v < 11; ++v) {
    records.push_back(Record({Value(v % 3), Value(v)}));
  }
  std::vector<CallInputs> calls;
  size_t next = 0;
  for (size_t size : {4u, 1u, 5u, 1u}) {
    CallInputs ci;
    ci.groups.resize(1);
    for (size_t k = 0; k < size; ++k) ci.groups[0].push_back(&records[next++]);
    calls.push_back(std::move(ci));
  }
  ExpectCallStateMatchesFreshRuns(fn, {}, calls);
}

TEST(Interp, CallStateMatchesFreshRunsOnFilterAndExpand) {
  FunctionBuilder b("fe", 1, UdfKind::kRat);
  Reg ir = b.InputRecord(0);
  Reg v = b.GetField(ir, 0);
  Label skip = b.NewLabel();
  b.BranchIfTrue(b.CmpLt(v, b.ConstInt(0)), skip);
  Reg orec = b.Copy(ir);
  b.SetField(orec, 1, b.Add(v, b.ConstInt(1)));
  b.Emit(orec);
  b.Emit(orec);
  b.Bind(skip);
  b.Return();
  tac::Function fn = MustBuild(std::move(b));

  FieldTranslation t;
  t.global_width = 4;
  t.input_maps = {{2, 3}};
  t.output_map = {2, 3};
  std::vector<Record> records;
  for (int64_t v : {3, -1, 0, -5, 7}) {
    Record wide;
    wide.SetField(3, Value::Null());
    wide.SetField(2, Value(v));
    records.push_back(std::move(wide));
  }
  std::vector<CallInputs> calls;
  for (const Record& r : records) {
    CallInputs ci;
    ci.groups = {{&r}};
    calls.push_back(std::move(ci));
  }
  ExpectCallStateMatchesFreshRuns(fn, t, calls);
}

TEST(Interp, CallStateDoesNotLeakRecordRegistersAcrossCalls) {
  // `saved` is written only when field 0 >= 10, but read on every call. A
  // reused workspace must read it as a fresh (empty) record on the calls
  // that skip the write, not as the previous call's copy.
  FunctionBuilder b("saved", 1, UdfKind::kRat);
  Reg ir = b.InputRecord(0);
  Reg v = b.GetField(ir, 0);
  Label after = b.NewLabel();
  b.BranchIfFalse(b.CmpGe(v, b.ConstInt(10)), after);
  Reg saved = b.Copy(ir);
  b.SetField(saved, 1, b.ConstInt(99));
  b.Bind(after);
  Reg out = b.NewRecord();
  b.SetField(out, 0, b.GetField(saved, 1));
  b.SetField(out, 1, v);
  b.Emit(out);
  b.Return();
  tac::Function fn = MustBuild(std::move(b));

  const Record big({Value(int64_t{42}), Value(int64_t{0})});
  const Record small({Value(int64_t{1}), Value(int64_t{0})});
  std::vector<CallInputs> calls(2);
  calls[0].groups = {{&big}};
  calls[1].groups = {{&small}};
  ExpectCallStateMatchesFreshRuns(fn, {}, calls);

  Interpreter interp(&fn);
  Interpreter::CallState state;
  std::vector<Record> emitted;
  ASSERT_TRUE(interp.Run(calls[0], {}, &emitted, nullptr, &state).ok());
  ASSERT_TRUE(interp.Run(calls[1], {}, &emitted, nullptr, &state).ok());
  ASSERT_EQ(emitted.size(), 2u);
  EXPECT_EQ(emitted[0].field(0).AsInt(), 99);
  EXPECT_TRUE(emitted[1].field(0).is_null())
      << "record register leaked across calls: " << emitted[1].ToString();
}

TEST(Interp, RunBatchOnEmptyBatchIsNoOp) {
  FunctionBuilder b("id", 1, UdfKind::kRat);
  b.Emit(b.Copy(b.InputRecord(0)));
  b.Return();
  tac::Function fn = MustBuild(std::move(b));
  Interpreter interp(&fn);
  std::vector<Record> in, out;
  RunStats rs;
  ASSERT_TRUE(interp.RunBatch(in, {}, &out, &rs).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(rs.instructions, 0);
}

TEST(Interp, InfiniteLoopHitsStepLimit) {
  FunctionBuilder b("spin", 1, UdfKind::kRat);
  Label loop = b.NewLabel();
  b.Bind(loop);
  b.Goto(loop);
  tac::Function fn = MustBuild(std::move(b));
  Interpreter interp(&fn);
  Record in({Value(int64_t{1})});
  CallInputs ci;
  ci.groups = {{&in}};
  std::vector<Record> out;
  Status s = interp.Run(ci, {}, &out);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kInternal);
}

TEST(Interp, CpuBurnIsMetered) {
  FunctionBuilder b("burn", 1, UdfKind::kRat);
  Reg ir = b.InputRecord(0);
  b.CpuBurn(123);
  b.Emit(b.Copy(ir));
  b.Return();
  tac::Function fn = MustBuild(std::move(b));
  Interpreter interp(&fn);
  Record in({Value(int64_t{1})});
  CallInputs ci;
  ci.groups = {{&in}};
  std::vector<Record> out;
  RunStats rs;
  ASSERT_TRUE(interp.Run(ci, {}, &out, &rs).ok());
  EXPECT_EQ(rs.cpu_burn_units, 123);
  EXPECT_EQ(rs.emits, 1);
}

TEST(Interp, DynamicFieldIndexReadsAtRuntime) {
  FunctionBuilder b("dyn", 1, UdfKind::kRat);
  Reg ir = b.InputRecord(0);
  Reg sel = b.GetField(ir, 0);  // selects which field to read
  Reg v = b.GetFieldDyn(ir, sel);
  Reg orec = b.Copy(ir);
  b.SetField(orec, 3, v);
  b.Emit(orec);
  b.Return();
  tac::Function fn = MustBuild(std::move(b));
  std::vector<Record> res = RunRat(
      fn, Record({Value(int64_t{2}), Value(int64_t{7}), Value(int64_t{9})}));
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].field(3).AsInt(), 9);  // field[field[0]] == field[2]
}

// --- Record lifetimes: borrowed inputs, moved emits (DESIGN.md §2.2) --------

/// Program counter of the `nth` kEmit of `fn`.
int EmitPc(const tac::Function& fn, int nth) {
  for (int pc = 0; pc < static_cast<int>(fn.instrs().size()); ++pc) {
    if (fn.instrs()[pc].op == tac::Opcode::kEmit && nth-- == 0) return pc;
  }
  ADD_FAILURE() << "no emit #" << nth;
  return 0;
}

/// One single-record call per record.
std::vector<CallInputs> RatCalls(const std::vector<Record>& records) {
  std::vector<CallInputs> calls;
  for (const Record& r : records) {
    CallInputs ci;
    ci.groups = {{&r}};
    calls.push_back(std::move(ci));
  }
  return calls;
}

/// Rows with an int, a 15-byte (inline) and a 16-byte (heap) string.
std::vector<Record> MixedRows() {
  std::vector<Record> rows;
  for (int64_t v : {4, -2, 9}) {
    rows.push_back(Record({Value(v), Value(std::string(15, 'a' + v % 3)),
                           Value(std::string(16, 'x'))}));
  }
  return rows;
}

TEST(Interp, RegisterEmittedTwiceMovesOnlyAtItsLastEmit) {
  FunctionBuilder b("twice", 1, UdfKind::kRat);
  Reg ir = b.InputRecord(0);
  Reg out = b.Copy(ir);
  b.SetField(out, 1, b.ConstInt(7));
  b.Emit(out);
  b.Emit(out);
  b.Return();
  tac::Function fn = MustBuild(std::move(b));
  EXPECT_TRUE(fn.borrows(ir.id));
  EXPECT_FALSE(fn.borrows(out.id));
  EXPECT_FALSE(fn.moves_at(EmitPc(fn, 0)));
  EXPECT_TRUE(fn.moves_at(EmitPc(fn, 1)));

  const std::vector<Record> rows = MixedRows();
  ExpectCallStateMatchesFreshRuns(fn, {}, RatCalls(rows));
  for (const Record& r : rows) {
    std::vector<Record> got = RunRat(fn, r);
    Record want = r;
    want.SetField(1, Value(int64_t{7}));
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], want);
    EXPECT_EQ(got[1], want);
  }
}

TEST(Interp, RegisterReadAfterItsEmitIsCopied) {
  FunctionBuilder b("read_after", 1, UdfKind::kRat);
  Reg ir = b.InputRecord(0);
  Reg out = b.Copy(ir);
  b.SetField(out, 0, b.ConstStr("sixteen-byte-str"));
  b.Emit(out);
  Reg again = b.NewRecord();
  b.SetField(again, 0, b.GetField(out, 0));
  b.SetField(again, 1, b.GetField(out, 2));
  b.Emit(again);
  b.Return();
  tac::Function fn = MustBuild(std::move(b));
  EXPECT_FALSE(fn.moves_at(EmitPc(fn, 0)));
  EXPECT_TRUE(fn.moves_at(EmitPc(fn, 1)));

  const std::vector<Record> rows = MixedRows();
  ExpectCallStateMatchesFreshRuns(fn, {}, RatCalls(rows));
  for (const Record& r : rows) {
    std::vector<Record> got = RunRat(fn, r);
    Record want = r;
    want.SetField(0, Value("sixteen-byte-str"));
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], want);
    EXPECT_EQ(got[1], Record({Value("sixteen-byte-str"), r.field(2)}));
  }
}

TEST(Interp, RegisterEmittedInsideALoop) {
  // `acc` grows by one field per iteration and is emitted each time, so only
  // the emit after the loop may move it; `m` is rebuilt before every read,
  // so its emit inside the loop moves.
  FunctionBuilder b("loop", 1, UdfKind::kKat);
  Reg n = b.InputCount(0);
  Reg i = b.ConstInt(0);
  Reg acc = b.NewRecord();
  Label loop = b.NewLabel();
  Label done = b.NewLabel();
  b.Bind(loop);
  b.BranchIfFalse(b.CmpLt(i, n), done);
  Reg member = b.InputAt(0, i);
  b.SetFieldDyn(acc, i, b.GetField(member, 2));
  b.Emit(acc);
  Reg m = b.Copy(member);
  b.SetField(m, 1, i);
  b.Emit(m);
  b.AccumAdd(i, b.ConstInt(1));
  b.Goto(loop);
  b.Bind(done);
  b.Emit(acc);
  b.Return();
  tac::Function fn = MustBuild(std::move(b));
  EXPECT_TRUE(fn.borrows(member.id));
  EXPECT_FALSE(fn.moves_at(EmitPc(fn, 0)));
  EXPECT_TRUE(fn.moves_at(EmitPc(fn, 1)));
  EXPECT_TRUE(fn.moves_at(EmitPc(fn, 2)));

  const std::vector<Record> rows = MixedRows();
  std::vector<CallInputs> calls(2);
  calls[0].groups = {{&rows[0], &rows[1], &rows[2]}};
  calls[1].groups = {{&rows[2]}};
  ExpectCallStateMatchesFreshRuns(fn, {}, calls);

  Interpreter interp(&fn);
  std::vector<Record> got;
  ASSERT_TRUE(interp.Run(calls[0], {}, &got).ok());
  ASSERT_EQ(got.size(), 7u);
  Record grown;
  for (int64_t k = 0; k < 3; ++k) {
    grown.Append(rows[k].field(2));
    EXPECT_EQ(got[2 * k], grown);
    Record want = rows[k];
    want.SetField(1, Value(k));
    EXPECT_EQ(got[2 * k + 1], want);
  }
  EXPECT_EQ(got[6], grown);
}

TEST(Interp, BorrowedInputIsCopiedAndNeverChanged) {
  FunctionBuilder b("borrow_copy", 1, UdfKind::kRat);
  Reg ir = b.InputRecord(0);
  Reg out = b.Copy(ir);
  b.SetField(out, 2, b.ConstStr("replaced"));
  b.Emit(out);
  b.Emit(ir);  // the last use of a borrowed register still copies
  b.Return();
  tac::Function fn = MustBuild(std::move(b));
  EXPECT_TRUE(fn.borrows(ir.id));
  EXPECT_TRUE(fn.moves_at(EmitPc(fn, 1)));

  const std::vector<Record> rows = MixedRows();
  const std::vector<Record> before = rows;
  ExpectCallStateMatchesFreshRuns(fn, {}, RatCalls(rows));
  for (size_t k = 0; k < rows.size(); ++k) {
    std::vector<Record> got = RunRat(fn, rows[k]);
    Record want = rows[k];
    want.SetField(2, Value("replaced"));
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], want);
    EXPECT_EQ(got[1], before[k]);
  }
  EXPECT_EQ(rows, before) << "a call changed its borrowed input";
}

/// Allocations made by one call of `fn` through a CallState that a first,
/// uncounted call has already sized.
long SecondCallAllocations(const Interpreter& interp,
                           const FieldTranslation& t, const CallInputs& ci,
                           std::vector<Record>* out) {
  Interpreter::CallState state;
  EXPECT_TRUE(interp.Run(ci, t, out, nullptr, &state).ok());
  t_allocations = 0;
  t_counting = true;
  Status st = interp.Run(ci, t, out, nullptr, &state);
  t_counting = false;
  EXPECT_TRUE(st.ok()) << st.ToString();
  return t_allocations;
}

TEST(Interp, ConcatJoinCallAllocatesOnlyItsOutput) {
  // The engine's join UDF: both inputs borrowed, the concat moved out. Its
  // one allocation is the emitted record's field vector.
  FunctionBuilder b("join", 2, UdfKind::kRat);
  Reg l = b.InputRecord(0);
  Reg r = b.InputRecord(1);
  b.Emit(b.Concat(l, r));
  b.Return();
  tac::Function fn = MustBuild(std::move(b));

  FieldTranslation t;
  t.global_width = 4;
  t.input_maps = {{0, 1}, {2, 3}};
  t.output_map = {0, 1, 2, 3};
  t.concat_positions = {{0, 1}, {2, 3}};
  const Record left({Value(int64_t{1}), Value("left"), Value(), Value()});
  const Record right({Value(), Value(), Value(int64_t{2}), Value("right")});
  CallInputs ci;
  ci.groups = {{&left}, {&right}};

  Interpreter interp(&fn);
  std::vector<Record> out;
  out.reserve(2);
  EXPECT_EQ(SecondCallAllocations(interp, t, ci, &out), 1);
  ASSERT_EQ(out.size(), 2u);
  const Record want({Value(int64_t{1}), Value("left"), Value(int64_t{2}),
                     Value("right")});
  EXPECT_EQ(out[0], want);
  EXPECT_EQ(out[1], want);
}

TEST(Interp, GroupLoopBorrowsEveryMember) {
  // A γ-shaped aggregate: it reads every member of the group once and emits
  // one record. Borrowed members cost nothing, so a group of 100 members
  // allocates exactly what a group of one does — the output's copy.
  FunctionBuilder b("sum", 1, UdfKind::kKat);
  Reg n = b.InputCount(0);
  Reg i = b.ConstInt(0);
  Reg sum = b.ConstInt(0);
  Label loop = b.NewLabel();
  Label done = b.NewLabel();
  b.Bind(loop);
  b.BranchIfFalse(b.CmpLt(i, n), done);
  b.AccumAdd(sum, b.GetField(b.InputAt(0, i), 1));
  b.AccumAdd(i, b.ConstInt(1));
  b.Goto(loop);
  b.Bind(done);
  Reg orec = b.Copy(b.InputAt(0, b.ConstInt(0)));
  b.SetField(orec, 1, sum);
  b.Emit(orec);
  b.Return();
  tac::Function fn = MustBuild(std::move(b));

  std::vector<Record> members;
  for (int64_t v = 0; v < 100; ++v) {
    members.push_back(Record({Value(std::string(20, 'm')), Value(v)}));
  }
  CallInputs group, single;
  group.groups.resize(1);
  for (const Record& m : members) group.groups[0].push_back(&m);
  single.groups = {{&members[0]}};

  Interpreter interp(&fn);
  std::vector<Record> out;
  out.reserve(4);
  const long one = SecondCallAllocations(interp, {}, single, &out);
  const long hundred = SecondCallAllocations(interp, {}, group, &out);
  EXPECT_EQ(hundred, one) << "a group member was copied";
  EXPECT_EQ(one, 2) << "the output's field vector and its 20-byte string";
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[3], Record({Value(std::string(20, 'm')), Value(int64_t{4950})}));
}

}  // namespace
}  // namespace interp
}  // namespace blackbox
