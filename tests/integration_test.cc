// Cross-module integration tests: deeper end-to-end scenarios that combine
// SCA, enumeration, physical optimization, profiling and execution in ways
// the per-module suites don't.

#include <gtest/gtest.h>

#include <set>

#include "api/profiler.h"
#include "common/rng.h"
#include "core/optimizer_api.h"
#include "engine/executor.h"
#include "tests/test_flows.h"
#include "workloads/clickstream.h"
#include "workloads/tpch.h"

namespace blackbox {
namespace {

using core::BlackBoxOptimizer;
using dataflow::AnnotationMode;
using dataflow::DataFlow;

TEST(Integration, MixedRelationalFlowWithSixOperatorsOptimizesAndRuns) {
  // A synthetic mixed flow: two filters, a join, an aggregation, and a
  // post-aggregation filter that the optimizer can move below the Reduce
  // (it reads only key attributes).
  DataFlow f;
  int orders = f.AddSource("orders", 3, 2000, 27);    // cust, amount, region
  int custs = f.AddSource("customers", 2, 100, 18, {0});  // cust, tier

  // Filter: amount >= 10.
  tac::FunctionBuilder fb("amount_filter", 1, tac::UdfKind::kRat);
  {
    tac::Reg ir = fb.InputRecord(0);
    tac::Reg v = fb.GetField(ir, 1);
    tac::Label skip = fb.NewLabel();
    fb.BranchIfFalse(fb.CmpGe(v, fb.ConstInt(10)), skip);
    fb.Emit(fb.Copy(ir));
    fb.Bind(skip);
    fb.Return();
  }
  dataflow::Hints filter_hints;
  filter_hints.selectivity = 0.8;
  int filt = f.AddMap("amount_filter", orders, testing::Built(std::move(fb)),
                      filter_hints);

  // Join with customers on cust id.
  dataflow::Hints join_hints;
  join_hints.distinct_keys = 100;
  int join = f.AddMatch("join_customers", filt, custs, {0}, {0},
                        workloads::MakeConcatJoinUdf("join_customers"),
                        join_hints);

  // Aggregate per customer: sum amount into field 5.
  tac::FunctionBuilder gb("sum_amount", 1, tac::UdfKind::kKat);
  {
    tac::Reg n = gb.InputCount(0);
    tac::Reg i = gb.ConstInt(0);
    tac::Reg sum = gb.ConstInt(0);
    tac::Label loop = gb.NewLabel();
    tac::Label done = gb.NewLabel();
    gb.Bind(loop);
    gb.BranchIfFalse(gb.CmpLt(i, n), done);
    tac::Reg r = gb.InputAt(0, i);
    gb.AccumAdd(sum, gb.GetField(r, 1));
    gb.AccumAdd(i, gb.ConstInt(1));
    gb.Goto(loop);
    gb.Bind(done);
    tac::Reg out = gb.Copy(gb.InputAt(0, gb.ConstInt(0)));
    gb.SetField(out, 5, sum);
    gb.Emit(out);
    gb.Return();
  }
  dataflow::Hints agg_hints;
  agg_hints.distinct_keys = 100;
  int agg = f.AddReduce("sum_amount", join, {0}, testing::Built(std::move(gb)),
                        agg_hints);

  // Key filter: keep even customer ids (movable past the Reduce: the emit
  // decision depends only on the Reduce key).
  tac::FunctionBuilder kb("even_cust", 1, tac::UdfKind::kRat);
  {
    tac::Reg ir = kb.InputRecord(0);
    tac::Reg k = kb.GetField(ir, 0);
    tac::Reg even = kb.CmpEq(kb.Mod(k, kb.ConstInt(2)), kb.ConstInt(0));
    tac::Label skip = kb.NewLabel();
    kb.BranchIfFalse(even, skip);
    kb.Emit(kb.Copy(ir));
    kb.Bind(skip);
    kb.Return();
  }
  int keyf = f.AddMap("even_cust", agg, testing::Built(std::move(kb)));
  f.SetSink("O", keyf);

  core::BlackBoxOptimizer::Options count_opts;
  count_opts.top_k = core::kAllPlans;  // count the full closure
  BlackBoxOptimizer optimizer(count_opts);
  StatusOr<core::OptimizationResult> result = optimizer.Optimize(f);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The key filter can sit above the Reduce, below it, below the Match (on
  // the orders side AND the customers side — it only reads the join key,
  // which both sides carry)... at minimum several alternatives exist.
  EXPECT_GE(result->num_alternatives, 4u);

  // Generate data and check all alternatives agree.
  DataSet orders_data, cust_data;
  Rng rng(99);
  for (int i = 0; i < 1500; ++i) {
    orders_data.Add(Record({Value(rng.Uniform(0, 99)),
                            Value(rng.Uniform(0, 49)),
                            Value(rng.Uniform(0, 3))}));
  }
  for (int i = 0; i < 100; ++i) {
    cust_data.Add(Record({Value(int64_t{i}), Value(rng.Uniform(0, 2))}));
  }
  engine::Executor exec(&result->annotated);
  exec.BindSource(orders, &orders_data);
  exec.BindSource(custs, &cust_data);
  StatusOr<DataSet> ref = exec.Execute(result->ranked[0].physical);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  EXPECT_GT(ref->size(), 0u);
  for (size_t i = 1; i < result->ranked.size(); ++i) {
    StatusOr<DataSet> out = exec.Execute(result->ranked[i].physical);
    ASSERT_TRUE(out.ok());
    EXPECT_TRUE(ref->BagEquals(*out))
        << reorder::PlanToString(result->ranked[i].logical, f);
  }
}

TEST(Integration, DotExportContainsAllOperators) {
  workloads::Workload w = workloads::MakeTpchQ15({});
  reorder::PlanPtr plan = reorder::PlanFromFlow(w.flow);
  std::string dot = reorder::PlanToDot(plan, w.flow);
  EXPECT_NE(dot.find("digraph plan"), std::string::npos);
  for (int i = 0; i < w.flow.num_ops(); ++i) {
    EXPECT_NE(dot.find(w.flow.op(i).name), std::string::npos)
        << "missing operator " << w.flow.op(i).name;
  }
  // 7 nodes -> 6 edges.
  size_t edges = 0;
  for (size_t pos = dot.find("->"); pos != std::string::npos;
       pos = dot.find("->", pos + 1)) {
    ++edges;
  }
  EXPECT_EQ(edges, 6u);
}

TEST(Integration, OptimizerIsDeterministic) {
  workloads::Workload w = workloads::MakeClickstream({});
  core::BlackBoxOptimizer::Options opts;
  opts.mode = AnnotationMode::kManual;
  BlackBoxOptimizer optimizer(opts);
  StatusOr<core::OptimizationResult> a = optimizer.Optimize(w.flow);
  StatusOr<core::OptimizationResult> b = optimizer.Optimize(w.flow);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->ranked.size(), b->ranked.size());
  for (size_t i = 0; i < a->ranked.size(); ++i) {
    EXPECT_EQ(reorder::CanonicalString(a->ranked[i].logical),
              reorder::CanonicalString(b->ranked[i].logical));
    EXPECT_DOUBLE_EQ(a->ranked[i].cost, b->ranked[i].cost);
  }
}

TEST(Integration, WorkloadGeneratorsAreDeterministic) {
  workloads::Workload a = workloads::MakeTpchQ15({});
  workloads::Workload b = workloads::MakeTpchQ15({});
  for (const auto& [id, data] : a.source_data) {
    EXPECT_TRUE(data.BagEquals(b.source_data.at(id)));
  }
}

TEST(Integration, EndToEndProfiledOptimizationOnQ7) {
  workloads::TpchScale scale;
  scale.lineitems = 3000;
  scale.orders = 600;
  scale.customers = 100;
  scale.suppliers = 30;
  workloads::Workload w = workloads::MakeTpchQ7(scale);

  // Wipe the hand-tuned hints and recover them by profiling.
  for (int i = 0; i < w.flow.num_ops(); ++i) {
    w.flow.op(i).hints = dataflow::Hints();
  }
  std::map<int, const DataSet*> srcs;
  for (const auto& [id, data] : w.source_data) srcs[id] = &data;
  StatusOr<api::FlowProfile> profile = api::ProfileFlow(w.flow, srcs);
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  api::ApplyProfile(*profile, &w.flow);

  core::BlackBoxOptimizer::Options opts;
  opts.top_k = core::kAllPlans;  // the >100 pin is a closure count
  BlackBoxOptimizer optimizer(opts);
  StatusOr<core::OptimizationResult> result = optimizer.Optimize(w.flow);
  ASSERT_TRUE(result.ok());
  engine::Executor exec(&result->annotated);
  for (const auto& [src, data] : w.source_data) exec.BindSource(src, &data);
  StatusOr<DataSet> out = exec.Execute(result->best().physical);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_GT(result->num_alternatives, 100u);
}

}  // namespace
}  // namespace blackbox
