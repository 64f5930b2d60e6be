// Coverage for the two remaining PACTs: CoGroup (tagged-union reordering of
// §4.3.2) and Cross (Theorem 3 Map push-down, Theorem 4 single-row Reduce
// push-down), including execution.

#include <gtest/gtest.h>

#include "core/optimizer_api.h"
#include "engine/executor.h"
#include "common/rng.h"
#include "tests/test_flows.h"
#include "workloads/workload.h"

namespace blackbox {
namespace {

using core::BlackBoxOptimizer;
using dataflow::DataFlow;
using dataflow::Hints;
using tac::FunctionBuilder;
using tac::Label;
using tac::Reg;
using tac::UdfKind;
using testing::MakeCoGroupFlow;
using testing::MakeCrossFlow;
using testing::MakeLeftCountCoGroup;

TEST(CoGroup, MapPushesBelowCoGroupOnItsSide) {
  // §4.3.2: a Map whose UDF only touches R attributes can be pushed below
  // the CoGroup to the R input (via the tagged-union argument) — the KGP
  // condition holds because the Map is one-to-one.
  DataFlow f = MakeCoGroupFlow();
  BlackBoxOptimizer optimizer;
  StatusOr<core::OptimizationResult> result = optimizer.Optimize(f);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Two orders: Map above CoGroup (original) and Map pushed to the R side.
  EXPECT_EQ(result->num_alternatives, 2u);
}

TEST(CoGroup, BothOrdersProduceSameOutput) {
  DataFlow f = MakeCoGroupFlow();
  BlackBoxOptimizer optimizer;
  StatusOr<core::OptimizationResult> result = optimizer.Optimize(f);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->ranked.size(), 2u);

  DataSet r_data, s_data;
  Rng rng(5);
  for (int i = 0; i < 120; ++i) {
    r_data.Add(Record({Value(rng.Uniform(0, 9)), Value(rng.Uniform(0, 99)),
                       Value(rng.Uniform(0, 9))}));
  }
  for (int i = 0; i < 40; ++i) {
    s_data.Add(Record({Value(rng.Uniform(0, 9)), Value(rng.Uniform(0, 99))}));
  }
  engine::Executor exec(&result->annotated);
  exec.BindSource(0, &r_data);
  exec.BindSource(1, &s_data);
  StatusOr<DataSet> a = exec.Execute(result->ranked[0].physical);
  StatusOr<DataSet> b = exec.Execute(result->ranked[1].physical);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->size(), 120u);  // every R record appears once
  EXPECT_TRUE(a->BagEquals(*b));
}

TEST(CoGroup, OuterKeysFormGroupsWithOneEmptySide) {
  // A key present only in S yields a group with an empty R side; the UDF
  // emits nothing for it (its loop runs zero times).
  DataFlow f = MakeCoGroupFlow();
  BlackBoxOptimizer optimizer;
  StatusOr<core::OptimizationResult> result = optimizer.Optimize(f);
  ASSERT_TRUE(result.ok());

  DataSet r_data, s_data;
  r_data.Add(Record({Value(int64_t{1}), Value(int64_t{5}), Value(int64_t{2})}));
  s_data.Add(Record({Value(int64_t{99}), Value(int64_t{7})}));  // S-only key
  engine::Executor exec(&result->annotated);
  exec.BindSource(0, &r_data);
  exec.BindSource(1, &s_data);
  StatusOr<DataSet> out = exec.Execute(result->ranked[0].physical);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 1u);
  // R's key-1 group saw zero partners on the right.
  EXPECT_EQ(out->record(0).field(3).AsInt(), 0);
}

TEST(CoGroup, MapTouchingBothSidesDoesNotMove) {
  // A Map reading an S attribute cannot be pushed to the R input (and vice
  // versa): the attribute-disjointness condition fails for both sides.
  DataFlow f;
  int r = f.AddSource("R", 3, 100, 27);
  int s = f.AddSource("S", 2, 50, 18);
  int cg = f.AddCoGroup("count_partners", r, s, {0}, {0},
                        MakeLeftCountCoGroup(3));
  // Reads the count attribute produced by the CoGroup itself.
  FunctionBuilder b("read_count", 1, UdfKind::kRat);
  Reg ir = b.InputRecord(0);
  Reg cnt = b.GetField(ir, 3);
  Reg out = b.Copy(ir);
  b.SetField(out, 4, b.Mul(cnt, b.ConstInt(10)));
  b.Emit(out);
  b.Return();
  int map = f.AddMap("read_count", cg, testing::Built(std::move(b)));
  f.SetSink("O", map);

  BlackBoxOptimizer optimizer;
  StatusOr<core::OptimizationResult> result = optimizer.Optimize(f);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_alternatives, 1u);
}

// ---------------------------------------------------------------------------
// Cross
// ---------------------------------------------------------------------------

TEST(Cross, MapReadingBothSidesStaysAbove) {
  DataFlow f = MakeCrossFlow(1);
  BlackBoxOptimizer optimizer;
  StatusOr<core::OptimizationResult> result = optimizer.Optimize(f);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_alternatives, 1u);
}

TEST(Cross, SingleSidedMapPushesBelowProduct) {
  // Theorem 3: Map_f(R × S) == Map_f(R) × S iff (R_f ∪ W_f) ∩ S = ∅.
  DataFlow f;
  int r = f.AddSource("R", 2, 200, 18);
  int p = f.AddSource("params", 1, 1, 9, {0});
  int cross = f.AddCross("combine", r, p,
                         workloads::MakeConcatJoinUdf("combine"));
  FunctionBuilder b("halve_x", 1, UdfKind::kRat);
  Reg ir = b.InputRecord(0);
  Reg x = b.GetField(ir, 0);
  Reg out = b.Copy(ir);
  b.SetField(out, 0, b.Div(x, b.ConstInt(2)));
  b.Emit(out);
  b.Return();
  int map = f.AddMap("halve_x", cross, testing::Built(std::move(b)));
  f.SetSink("O", map);

  BlackBoxOptimizer optimizer;
  StatusOr<core::OptimizationResult> result = optimizer.Optimize(f);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_alternatives, 2u);

  // Both orders execute identically.
  DataSet r_data, p_data;
  Rng rng(17);
  for (int i = 0; i < 60; ++i) {
    r_data.Add(Record({Value(rng.Uniform(0, 40)), Value(rng.Uniform(0, 5))}));
  }
  p_data.Add(Record({Value(int64_t{10})}));
  engine::Executor exec(&result->annotated);
  exec.BindSource(0, &r_data);
  exec.BindSource(1, &p_data);
  StatusOr<DataSet> a = exec.Execute(result->ranked[0].physical);
  StatusOr<DataSet> bb = exec.Execute(result->ranked[1].physical);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(bb.ok());
  EXPECT_EQ(a->size(), 60u);
  EXPECT_TRUE(a->BagEquals(*bb));
}

TEST(Cross, CrossProductCardinalityIsProductOfInputs) {
  DataFlow f = MakeCrossFlow(3);
  BlackBoxOptimizer optimizer;
  StatusOr<core::OptimizationResult> result = optimizer.Optimize(f);
  ASSERT_TRUE(result.ok());
  DataSet r_data, p_data;
  for (int i = 0; i < 10; ++i) {
    r_data.Add(Record({Value(int64_t{i}), Value(int64_t{0})}));
  }
  for (int t : {0, 5, 8}) {
    p_data.Add(Record({Value(int64_t{t})}));
  }
  engine::Executor exec(&result->annotated);
  exec.BindSource(0, &r_data);
  exec.BindSource(1, &p_data);
  StatusOr<DataSet> out = exec.Execute(result->ranked[0].physical);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // x in 0..9 against thresholds {0,5,8}: 10 + 5 + 2 survivors.
  EXPECT_EQ(out->size(), 17u);
}

TEST(Cross, ReducePushesPastSingleRowCross) {
  // Theorem 4's practical special case: |R| = 1 (scalar subquery result).
  DataFlow f;
  int r = f.AddSource("R", 2, 500, 18);  // key, v
  int p = f.AddSource("param", 1, 1, 9, {0});
  int cross = f.AddCross("with_param", r, p,
                         workloads::MakeConcatJoinUdf("with_param"));
  // Reduce per key: sum v into a new attribute.
  FunctionBuilder b("sum_v", 1, UdfKind::kKat);
  Reg n = b.InputCount(0);
  Reg i = b.ConstInt(0);
  Reg sum = b.ConstInt(0);
  Label loop = b.NewLabel();
  Label done = b.NewLabel();
  b.Bind(loop);
  b.BranchIfFalse(b.CmpLt(i, n), done);
  Reg rec = b.InputAt(0, i);
  b.AccumAdd(sum, b.GetField(rec, 1));
  b.AccumAdd(i, b.ConstInt(1));
  b.Goto(loop);
  b.Bind(done);
  Reg out = b.Copy(b.InputAt(0, b.ConstInt(0)));
  b.SetField(out, 3, sum);
  b.Emit(out);
  b.Return();
  Hints h;
  h.distinct_keys = 20;
  int red = f.AddReduce("sum_v", cross, {0}, testing::Built(std::move(b)), h);
  f.SetSink("O", red);

  BlackBoxOptimizer optimizer;
  StatusOr<core::OptimizationResult> result = optimizer.Optimize(f);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_alternatives, 2u);

  DataSet r_data, p_data;
  Rng rng(23);
  for (int i = 0; i < 200; ++i) {
    r_data.Add(Record({Value(rng.Uniform(0, 19)), Value(rng.Uniform(0, 9))}));
  }
  p_data.Add(Record({Value(int64_t{7})}));
  engine::Executor exec(&result->annotated);
  exec.BindSource(0, &r_data);
  exec.BindSource(1, &p_data);
  StatusOr<DataSet> a = exec.Execute(result->ranked[0].physical);
  StatusOr<DataSet> bb = exec.Execute(result->ranked[1].physical);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(bb.ok()) << bb.status().ToString();
  EXPECT_TRUE(a->BagEquals(*bb));
}

}  // namespace
}  // namespace blackbox
