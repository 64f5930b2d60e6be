// Execution engine tests: the Section 3 example end to end, byte metering of
// shipping strategies, and estimate-vs-measured sanity.

#include "engine/executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "common/rng.h"
#include "core/optimizer_api.h"
#include "tests/test_flows.h"
#include "workloads/workload.h"

namespace blackbox {
namespace engine {
namespace {

using core::BlackBoxOptimizer;
using dataflow::AnnotationMode;

TEST(Engine, Section3FlowComputesExpectedOutput) {
  dataflow::DataFlow flow = testing::MakeSection3Flow();
  DataSet data = testing::MakeSection3Data();

  BlackBoxOptimizer optimizer;
  StatusOr<core::OptimizationResult> result = optimizer.Optimize(flow);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  ExecOptions eo;
  eo.dop = 3;
  Executor exec(&result->annotated, eo);
  exec.BindSource(0, &data);

  StatusOr<DataSet> out = exec.Execute(result->ranked[0].physical);
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  // Input: (2,-3) -> (5,3); (-2,-3) filtered; (5,1) -> (6,1);
  // (0,0) -> (0,0); (-7,4) filtered.
  DataSet expected;
  expected.Add(Record({Value(int64_t{5}), Value(int64_t{3})}));
  expected.Add(Record({Value(int64_t{6}), Value(int64_t{1})}));
  expected.Add(Record({Value(int64_t{0}), Value(int64_t{0})}));
  EXPECT_TRUE(out->BagEquals(expected)) << out->ToString();
}

TEST(Engine, AllSection3AlternativesAgree) {
  dataflow::DataFlow flow = testing::MakeSection3Flow();
  DataSet data = testing::MakeSection3Data();
  BlackBoxOptimizer optimizer;
  StatusOr<core::OptimizationResult> result = optimizer.Optimize(flow);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->ranked.size(), 2u);

  Executor exec(&result->annotated);
  exec.BindSource(0, &data);
  StatusOr<DataSet> a = exec.Execute(result->ranked[0].physical);
  StatusOr<DataSet> b = exec.Execute(result->ranked[1].physical);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->BagEquals(*b));
}

TEST(Engine, StatsAreMetered) {
  dataflow::DataFlow flow = testing::MakeSection422Flow();
  DataSet data;
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    data.Add(Record({Value(rng.Uniform(0, 20)), Value(rng.Uniform(0, 50))}));
  }
  BlackBoxOptimizer optimizer;
  StatusOr<core::OptimizationResult> result = optimizer.Optimize(flow);
  ASSERT_TRUE(result.ok());

  ExecOptions eo;
  eo.dop = 4;
  Executor exec(&result->annotated, eo);
  exec.BindSource(0, &data);
  ExecStats stats;
  StatusOr<DataSet> out = exec.Execute(result->ranked[0].physical, &stats);
  ASSERT_TRUE(out.ok());
  // The Reduce repartitions by key: bytes must cross instances.
  EXPECT_GT(stats.network_bytes, 0);
  EXPECT_GT(stats.udf_calls, 0);
  EXPECT_GT(stats.records_processed, 0);
  EXPECT_EQ(stats.output_rows, static_cast<int64_t>(out->size()));
  EXPECT_GT(stats.wall_seconds, 0.0);
}

TEST(Engine, MissingSourceBindingFails) {
  dataflow::DataFlow flow = testing::MakeSection3Flow();
  BlackBoxOptimizer optimizer;
  StatusOr<core::OptimizationResult> result = optimizer.Optimize(flow);
  ASSERT_TRUE(result.ok());
  Executor exec(&result->annotated);
  StatusOr<DataSet> out = exec.Execute(result->ranked[0].physical);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), Status::Code::kInvalidArgument);
}

TEST(Engine, DopOneAndManyProduceSameResult) {
  dataflow::DataFlow flow = testing::MakeSection422Flow();
  DataSet data;
  Rng rng(9);
  for (int i = 0; i < 300; ++i) {
    data.Add(Record({Value(rng.Uniform(0, 10)), Value(rng.Uniform(0, 9))}));
  }
  BlackBoxOptimizer optimizer;
  StatusOr<core::OptimizationResult> result = optimizer.Optimize(flow);
  ASSERT_TRUE(result.ok());

  StatusOr<DataSet> out1 = [&] {
    ExecOptions eo;
    eo.dop = 1;
    Executor exec(&result->annotated, eo);
    exec.BindSource(0, &data);
    return exec.Execute(result->ranked[0].physical);
  }();
  StatusOr<DataSet> out8 = [&] {
    ExecOptions eo;
    eo.dop = 8;
    Executor exec(&result->annotated, eo);
    exec.BindSource(0, &data);
    return exec.Execute(result->ranked[0].physical);
  }();
  ASSERT_TRUE(out1.ok());
  ASSERT_TRUE(out8.ok());
  EXPECT_TRUE(out1->BagEquals(*out8));
}

optimizer::PhysicalNode* FindNode(optimizer::PhysicalNode* n,
                                  const dataflow::DataFlow& flow,
                                  dataflow::OpKind kind) {
  if (flow.op(n->op_id).kind == kind) return n;
  for (auto& c : n->children) {
    if (optimizer::PhysicalNode* hit = FindNode(c.get(), flow, kind)) {
      return hit;
    }
  }
  return nullptr;
}

/// Order-insensitive, bit-exact form of a data set: the sorted record
/// strings, which tell 0.0 from -0.0 and keep NaNs comparable.
std::vector<std::string> SortedStrings(const DataSet& d) {
  std::vector<std::string> out;
  for (const Record& r : d.records()) out.push_back(r.ToString());
  std::sort(out.begin(), out.end());
  return out;
}

// 0.0 and -0.0 are one key to every comparator, and so are all NaNs. At
// dop 6 a hash of the raw bits sends 0.0 and -0.0 to different partitions
// (3 and 1), so a hash-partitioned join would lose cross pairs that a
// broadcast join finds.
TEST(Engine, SpecialDoubleKeysJoinAlikeUnderEveryPlan) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  dataflow::DataFlow flow;
  int l = flow.AddSource("L", 2, 5, 20);
  int r = flow.AddSource("R", 2, 4, 20);
  int join = flow.AddMatch("join", l, r, {0}, {0},
                           workloads::MakeConcatJoinUdf("join"));
  flow.SetSink("O", join);
  DataSet left, right;
  for (double k : {0.0, -0.0, nan, -nan, 1.5}) {
    left.Add(Record({Value(k), Value(std::string("l"))}));
  }
  for (double k : {-0.0, 0.0, std::nan("5"), 2.5}) {
    right.Add(Record({Value(k), Value(std::string("r"))}));
  }

  BlackBoxOptimizer optimizer;
  StatusOr<core::OptimizationResult> result = optimizer.Optimize(flow);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  optimizer::PhysicalPlan& plan = result->ranked[0].physical;
  optimizer::PhysicalNode* match =
      FindNode(plan.root.get(), flow, dataflow::OpKind::kMatch);
  ASSERT_NE(match, nullptr);

  using optimizer::LocalStrategy;
  using optimizer::ShipStrategy;
  struct Variant {
    const char* name;
    ShipStrategy left, right;
    LocalStrategy local;
  };
  const Variant variants[] = {
      {"hash-partition", ShipStrategy::kPartitionHash,
       ShipStrategy::kPartitionHash, LocalStrategy::kHashJoinBuildLeft},
      {"broadcast", ShipStrategy::kBroadcast, ShipStrategy::kForward,
       LocalStrategy::kHashJoinBuildLeft},
      {"sort-merge", ShipStrategy::kPartitionHash,
       ShipStrategy::kPartitionHash, LocalStrategy::kSortMergeJoin},
  };
  std::vector<std::string> reference;
  for (const Variant& v : variants) {
    match->ships = {v.left, v.right};
    match->local = v.local;
    match->input_presorted.clear();
    match->sort_order.clear();
    ExecOptions eo;
    eo.dop = 6;
    Executor exec(&result->annotated, eo);
    exec.BindSource(l, &left);
    exec.BindSource(r, &right);
    StatusOr<DataSet> out = exec.Execute(plan);
    ASSERT_TRUE(out.ok()) << v.name << ": " << out.status().ToString();
    // {0.0, -0.0} x {-0.0, 0.0} plus {NaN, -NaN} x {NaN}.
    EXPECT_EQ(out->size(), 6u) << v.name << ": " << out->ToString();
    if (reference.empty()) {
      reference = SortedStrings(*out);
    } else {
      EXPECT_EQ(SortedStrings(*out), reference) << v.name;
    }
  }
}

TEST(Engine, ReduceGroupsSignedZerosAndNaNsTogether) {
  // Emits the group's first record with the group size in field 1.
  tac::FunctionBuilder b("count", 1, tac::UdfKind::kKat);
  tac::Reg out = b.Copy(b.InputAt(0, b.ConstInt(0)));
  b.SetField(out, 1, b.InputCount(0));
  b.Emit(out);
  b.Return();
  dataflow::DataFlow flow;
  int src = flow.AddSource("I", 2, 7, 20);
  int red = flow.AddReduce("count", src, {0}, testing::Built(std::move(b)));
  flow.SetSink("O", red);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  DataSet data;
  for (double k : {0.0, -0.0, nan, 1.0, 0.0, -nan, std::nan("9")}) {
    data.Add(Record({Value(k), Value::Null()}));
  }

  BlackBoxOptimizer optimizer;
  StatusOr<core::OptimizationResult> result = optimizer.Optimize(flow);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  optimizer::PhysicalPlan& plan = result->ranked[0].physical;
  optimizer::PhysicalNode* reduce =
      FindNode(plan.root.get(), flow, dataflow::OpKind::kReduce);
  ASSERT_NE(reduce, nullptr);
  reduce->ships = {optimizer::ShipStrategy::kPartitionHash};
  reduce->local = optimizer::LocalStrategy::kSortGroup;
  reduce->input_presorted.clear();

  ExecOptions eo;
  eo.dop = 6;
  Executor exec(&result->annotated, eo);
  exec.BindSource(src, &data);
  StatusOr<DataSet> groups = exec.Execute(plan);
  ASSERT_TRUE(groups.ok()) << groups.status().ToString();
  ASSERT_EQ(groups->size(), 3u) << groups->ToString();
  std::map<std::string, int64_t> counts;  // key class -> group size
  for (const Record& g : groups->records()) {
    const double k = g.field(0).AsDouble();
    counts[std::isnan(k) ? "nan" : k == 0.0 ? "zero" : "one"] =
        g.field(1).AsInt();
  }
  EXPECT_EQ(counts, (std::map<std::string, int64_t>{
                        {"nan", 3}, {"one", 1}, {"zero", 3}}));
}

}  // namespace
}  // namespace engine
}  // namespace blackbox
