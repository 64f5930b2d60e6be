// Shared test fixtures: small data flows built around the paper's Section 3
// example and variants used across the reorder / enumerate / engine tests.

#ifndef BLACKBOX_TESTS_TEST_FLOWS_H_
#define BLACKBOX_TESTS_TEST_FLOWS_H_

#include <cassert>
#include <memory>

#include "dataflow/flow.h"
#include "record/record.h"
#include "tac/tac.h"
#include "workloads/workload.h"

namespace blackbox {
namespace testing {

inline std::shared_ptr<const tac::Function> Built(tac::FunctionBuilder&& b) {
  StatusOr<tac::Function> fn = b.Build();
  assert(fn.ok());
  return std::make_shared<const tac::Function>(std::move(fn).value());
}

/// f1 from §3: field1 := |field1|.
inline std::shared_ptr<const tac::Function> MakeAbsUdf() {
  tac::FunctionBuilder b("f1_abs", 1, tac::UdfKind::kRat);
  tac::Reg ir = b.InputRecord(0);
  tac::Reg v = b.GetField(ir, 1);
  tac::Reg out = b.Copy(ir);
  tac::Label done = b.NewLabel();
  b.BranchIfTrue(b.CmpGe(v, b.ConstInt(0)), done);
  b.SetField(out, 1, b.Neg(v));
  b.Bind(done);
  b.Emit(out);
  b.Return();
  return Built(std::move(b));
}

/// f2 from §3: emit iff field0 >= 0.
inline std::shared_ptr<const tac::Function> MakeFilterNonNegUdf() {
  tac::FunctionBuilder b("f2_filter", 1, tac::UdfKind::kRat);
  tac::Reg ir = b.InputRecord(0);
  tac::Reg a = b.GetField(ir, 0);
  tac::Label skip = b.NewLabel();
  b.BranchIfTrue(b.CmpLt(a, b.ConstInt(0)), skip);
  b.Emit(b.Copy(ir));
  b.Bind(skip);
  b.Return();
  return Built(std::move(b));
}

/// f3 from §3: field0 := field0 + field1.
inline std::shared_ptr<const tac::Function> MakeSumUdf() {
  tac::FunctionBuilder b("f3_sum", 1, tac::UdfKind::kRat);
  tac::Reg ir = b.InputRecord(0);
  tac::Reg a = b.GetField(ir, 0);
  tac::Reg bb = b.GetField(ir, 1);
  tac::Reg out = b.Copy(ir);
  b.SetField(out, 0, b.Add(a, bb));
  b.Emit(out);
  b.Return();
  return Built(std::move(b));
}

/// The Section 3 program: I -> Map1(f1) -> Map2(f2) -> Map3(f3) -> O over a
/// two-attribute input <A, B>.
inline dataflow::DataFlow MakeSection3Flow() {
  dataflow::DataFlow f;
  int src = f.AddSource("I", 2, 1000, 18);
  int m1 = f.AddMap("map1_abs", src, MakeAbsUdf());
  int m2 = f.AddMap("map2_filter", m1, MakeFilterNonNegUdf());
  int m3 = f.AddMap("map3_sum", m2, MakeSumUdf());
  f.SetSink("O", m3);
  return f;
}

/// Input data for the Section 3 flow.
inline DataSet MakeSection3Data() {
  DataSet ds;
  ds.Add(Record({Value(int64_t{2}), Value(int64_t{-3})}));
  ds.Add(Record({Value(int64_t{-2}), Value(int64_t{-3})}));
  ds.Add(Record({Value(int64_t{5}), Value(int64_t{1})}));
  ds.Add(Record({Value(int64_t{0}), Value(int64_t{0})}));
  ds.Add(Record({Value(int64_t{-7}), Value(int64_t{4})}));
  return ds;
}

/// The Map/Reduce counter-example of §4.2.2: Map filters odd A and B, Reduce
/// sums B per A-key into a new attribute C — NOT reorderable (KGP fails).
inline dataflow::DataFlow MakeSection422Flow() {
  dataflow::DataFlow f;
  int src = f.AddSource("I", 2, 1000, 18);

  tac::FunctionBuilder mb("f_odd_filter", 1, tac::UdfKind::kRat);
  tac::Reg ir = mb.InputRecord(0);
  tac::Reg a = mb.GetField(ir, 0);
  tac::Reg b2 = mb.GetField(ir, 1);
  tac::Reg two = mb.ConstInt(2);
  tac::Reg odd =
      mb.And(mb.CmpEq(mb.Mod(a, two), mb.ConstInt(1)),
             mb.CmpEq(mb.Mod(b2, two), mb.ConstInt(1)));
  tac::Label skip = mb.NewLabel();
  mb.BranchIfFalse(odd, skip);
  mb.Emit(mb.Copy(ir));
  mb.Bind(skip);
  mb.Return();
  int map = f.AddMap("odd_filter", src, Built(std::move(mb)));

  tac::FunctionBuilder rb("g_sum_b", 1, tac::UdfKind::kKat);
  tac::Reg n = rb.InputCount(0);
  tac::Reg i = rb.ConstInt(0);
  tac::Reg sum = rb.ConstInt(0);
  tac::Label loop = rb.NewLabel();
  tac::Label done = rb.NewLabel();
  rb.Bind(loop);
  rb.BranchIfFalse(rb.CmpLt(i, n), done);
  tac::Reg r = rb.InputAt(0, i);
  rb.AccumAdd(sum, rb.GetField(r, 1));
  rb.AccumAdd(i, rb.ConstInt(1));
  rb.Goto(loop);
  rb.Bind(done);
  // Emits every record of the group with the sum appended as attribute C.
  tac::Reg j = rb.ConstInt(0);
  tac::Label eloop = rb.NewLabel();
  tac::Label eout = rb.NewLabel();
  rb.Bind(eloop);
  rb.BranchIfFalse(rb.CmpLt(j, n), eout);
  tac::Reg r2 = rb.InputAt(0, j);
  tac::Reg out = rb.Copy(r2);
  rb.SetField(out, 2, sum);
  rb.Emit(out);
  rb.AccumAdd(j, rb.ConstInt(1));
  rb.Goto(eloop);
  rb.Bind(eout);
  rb.Return();
  dataflow::Hints h;
  h.distinct_keys = 100;
  int red = f.AddReduce("sum_b_per_a", map, {0}, Built(std::move(rb)), h);

  f.SetSink("O", red);
  return f;
}

/// CoGroup UDF: emits every left-group record with the right-group size
/// appended — record-preserving on the left input (copy semantics), so a
/// left-side Map can move past it.
inline std::shared_ptr<const tac::Function> MakeLeftCountCoGroup(
    int out_field) {
  tac::FunctionBuilder b("left_count_cogroup", 2, tac::UdfKind::kKat);
  tac::Reg nl = b.InputCount(0);
  tac::Reg nr = b.InputCount(1);
  tac::Reg i = b.ConstInt(0);
  tac::Label loop = b.NewLabel();
  tac::Label done = b.NewLabel();
  b.Bind(loop);
  b.BranchIfFalse(b.CmpLt(i, nl), done);
  tac::Reg r = b.InputAt(0, i);
  tac::Reg out = b.Copy(r);
  b.SetField(out, out_field, nr);
  b.Emit(out);
  b.AccumAdd(i, b.ConstInt(1));
  b.Goto(loop);
  b.Bind(done);
  b.Return();
  return Built(std::move(b));
}

/// Map over R(key, x, z): z := z * 2 (one-to-one, touches only z).
inline std::shared_ptr<const tac::Function> MakeDoubleZ() {
  tac::FunctionBuilder b("double_z", 1, tac::UdfKind::kRat);
  tac::Reg ir = b.InputRecord(0);
  tac::Reg z = b.GetField(ir, 2);
  tac::Reg out = b.Copy(ir);
  b.SetField(out, 2, b.Mul(z, b.ConstInt(2)));
  b.Emit(out);
  b.Return();
  return Built(std::move(b));
}

/// R(key, x, z) CoGroup S(key, y) on key, counting each R record's partners,
/// then a Map on R's z: two orders (§4.3.2's tagged-union push-down).
inline dataflow::DataFlow MakeCoGroupFlow() {
  dataflow::DataFlow f;
  int r = f.AddSource("R", 3, 100, 27);  // key, x, z
  int s = f.AddSource("S", 2, 50, 18);   // key, y
  dataflow::Hints h;
  h.distinct_keys = 10;
  int cg = f.AddCoGroup("count_partners", r, s, {0}, {0},
                        MakeLeftCountCoGroup(3), h);
  int map = f.AddMap("double_z", cg, MakeDoubleZ());
  f.SetSink("O", map);
  return f;
}

/// R(x, z) × params(threshold), then a Map keeping x >= threshold (it reads
/// both sides, so it stays above the Cross).
inline dataflow::DataFlow MakeCrossFlow(int64_t params_rows) {
  dataflow::DataFlow f;
  int r = f.AddSource("R", 2, 200, 18);
  int p = f.AddSource("params", 1, params_rows, 9, {0});
  int cross = f.AddCross("combine", r, p,
                         workloads::MakeConcatJoinUdf("combine"));
  tac::FunctionBuilder b("filter_by_param", 1, tac::UdfKind::kRat);
  tac::Reg ir = b.InputRecord(0);
  tac::Reg x = b.GetField(ir, 0);
  tac::Reg t = b.GetField(ir, 2);
  tac::Label skip = b.NewLabel();
  b.BranchIfFalse(b.CmpGe(x, t), skip);
  b.Emit(b.Copy(ir));
  b.Bind(skip);
  b.Return();
  int map = f.AddMap("filter_by_param", cross, Built(std::move(b)));
  f.SetSink("O", map);
  return f;
}

}  // namespace testing
}  // namespace blackbox

#endif  // BLACKBOX_TESTS_TEST_FLOWS_H_
