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
#include "tests/alloc_count.h"
#include "tests/exec_expect.h"
#include "tests/test_flows.h"
#include "workloads/textmining.h"
#include "workloads/tpch.h"
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

/// Three records per key in [0, keys): the key, then a 24-byte payload
/// naming the side, the key and the copy (long enough to live on the heap).
DataSet ThreePerKey(char side, int64_t keys) {
  DataSet d;
  for (int64_t k = 0; k < keys; ++k) {
    for (int copy = 0; copy < 3; ++copy) {
      std::string payload(24, side);
      payload.replace(0, 4, std::to_string(1000 + k));
      payload[5] = static_cast<char>('0' + copy);
      d.Add(Record({Value(k), Value(payload)}));
    }
  }
  return d;
}

/// The nested-loop reference of a concat join: Record::Concat of every pair
/// whose first fields are equal, or of every pair for a Cross.
DataSet NestedLoop(const DataSet& left, const DataSet& right, bool cross) {
  DataSet out;
  for (const Record& a : left.records()) {
    for (const Record& b : right.records()) {
      if (cross || a.field(0) == b.field(0)) out.Add(Record::Concat(a, b));
    }
  }
  return out;
}

/// Runs the rank-1 plan of `result` at dop 4 on 1 and on 4 threads: the
/// output must bag-equal `want`, and both runs must be identical in output
/// and every meter.
void ExpectRunsMatch(const core::OptimizationResult& result,
                     const std::map<int, const DataSet*>& sources,
                     double mem_budget_bytes, const DataSet& want) {
  DataSet outs[2];
  ExecStats stats[2];
  for (int k = 0; k < 2; ++k) {
    ExecOptions eo;
    eo.dop = 4;
    eo.num_threads = k == 0 ? 1 : 4;
    eo.mem_budget_bytes = mem_budget_bytes;
    Executor exec(&result.annotated, eo);
    for (const auto& [id, data] : sources) exec.BindSource(id, data);
    StatusOr<DataSet> out = exec.Execute(result.ranked[0].physical, &stats[k]);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    outs[k] = std::move(out).value();
  }
  EXPECT_TRUE(outs[0].BagEquals(want)) << outs[0].ToString();
  testing::ExpectIdenticalOutput(outs[1], outs[0]);
  testing::ExpectIdenticalMeters(stats[1], stats[0]);
}

// Every probe key hits three build records. Each join strategy donates a
// probe record (the sort-merge join: a left record) to the concat on its
// last partner only (DESIGN.md §2.2), so a record consumed earlier would
// leave the later outputs of its key without its fields.
TEST(Engine, OneToManyJoinsMatchANestedLoopUnderEveryStrategy) {
  dataflow::DataFlow flow;
  int l = flow.AddSource("L", 2, 120, 40);
  int r = flow.AddSource("R", 2, 132, 40);
  int join = flow.AddMatch("join", l, r, {0}, {0},
                           workloads::MakeConcatJoinUdf("join"));
  flow.SetSink("O", join);
  const DataSet left = ThreePerKey('l', 40);
  const DataSet right = ThreePerKey('r', 44);
  const DataSet want = NestedLoop(left, right, /*cross=*/false);

  BlackBoxOptimizer optimizer;
  StatusOr<core::OptimizationResult> result = optimizer.Optimize(flow);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  optimizer::PhysicalNode* match = FindNode(
      result->ranked[0].physical.root.get(), flow, dataflow::OpKind::kMatch);
  ASSERT_NE(match, nullptr);
  using optimizer::LocalStrategy;
  match->ships = {optimizer::ShipStrategy::kPartitionHash,
                  optimizer::ShipStrategy::kPartitionHash};
  match->input_presorted.clear();
  struct Variant {
    const char* name;
    LocalStrategy local;
    bool keeps_order;  // a build side over budget then runs a block join
    double mem_budget_bytes;
  };
  const Variant variants[] = {
      {"hash, build left", LocalStrategy::kHashJoinBuildLeft, false, 1 << 30},
      {"hash, build right", LocalStrategy::kHashJoinBuildRight, false,
       1 << 30},
      {"block hash, build left", LocalStrategy::kHashJoinBuildLeft, true, 512},
      {"block hash, build right", LocalStrategy::kHashJoinBuildRight, true,
       512},
      {"sort-merge", LocalStrategy::kSortMergeJoin, false, 1 << 30},
  };
  for (const Variant& v : variants) {
    SCOPED_TRACE(v.name);
    match->local = v.local;
    match->sort_order.clear();
    if (v.keeps_order) match->sort_order = {0};
    ExpectRunsMatch(*result, {{l, &left}, {r, &right}}, v.mem_budget_bytes,
                    want);
  }
}

// The in-memory Cross donates each left record on its last right record;
// the block nested loop donates nothing.
TEST(Engine, CrossMatchesANestedLoopInMemoryAndBlockwise) {
  dataflow::DataFlow flow;
  int l = flow.AddSource("L", 2, 12, 40);
  int r = flow.AddSource("R", 2, 9, 40);
  int cross = flow.AddCross("cross", l, r,
                            workloads::MakeConcatJoinUdf("cross"));
  flow.SetSink("O", cross);
  const DataSet left = ThreePerKey('l', 4);
  const DataSet right = ThreePerKey('r', 3);
  const DataSet want = NestedLoop(left, right, /*cross=*/true);

  BlackBoxOptimizer optimizer;
  StatusOr<core::OptimizationResult> result = optimizer.Optimize(flow);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (double budget : {double{1 << 30}, 64.0}) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    ExpectRunsMatch(*result, {{l, &left}, {r, &right}}, budget, want);
  }
}

// An n:1 concat join on one thread builds each output in its donated probe
// record. One execution allocated 10,698 times when every output was a
// fresh record and 8,699 times since: one allocation fewer per output. The
// rest (scan widening, the sink projection, batches) stays.
TEST(Engine, ConcatJoinBuildsItsOutputsInTheProbeRecords) {
  constexpr int64_t kKeys = 100;
  constexpr int64_t kProbes = 2000;
  dataflow::DataFlow flow;
  int probe = flow.AddSource("P", 2, kProbes, 20);
  int build = flow.AddSource("B", 2, kKeys, 20);
  int join = flow.AddMatch("join", probe, build, {0}, {0},
                           workloads::MakeConcatJoinUdf("join"));
  flow.SetSink("O", join);
  DataSet probes, builds;
  for (int64_t i = 0; i < kProbes; ++i) {
    probes.Add(Record({Value(i % kKeys), Value("p")}));
  }
  for (int64_t k = 0; k < kKeys; ++k) {
    builds.Add(Record({Value(k), Value("b")}));
  }

  BlackBoxOptimizer optimizer;
  StatusOr<core::OptimizationResult> result = optimizer.Optimize(flow);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  optimizer::PhysicalPlan& plan = result->ranked[0].physical;
  optimizer::PhysicalNode* match =
      FindNode(plan.root.get(), flow, dataflow::OpKind::kMatch);
  ASSERT_NE(match, nullptr);
  match->local = optimizer::LocalStrategy::kHashJoinBuildRight;
  match->input_presorted.clear();
  match->sort_order.clear();

  ExecOptions eo;
  eo.dop = 1;
  eo.num_threads = 1;
  Executor exec(&result->annotated, eo);
  exec.BindSource(probe, &probes);
  exec.BindSource(build, &builds);
  ASSERT_TRUE(exec.Execute(plan).ok());  // creates the worker pool
  StatusOr<DataSet> out = Status::Internal("not run");
  const long allocations =
      testing::AllocationsDuring([&] { out = exec.Execute(plan); });
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->size(), static_cast<size_t>(kProbes));
  EXPECT_LT(allocations, 9700) << "a join output was built as a new record";
}

/// ExecStats::per_op splits the plan's UDF meters by operator: summed over
/// the operators they equal the totals, and no source or sink is charged,
/// whether chains run fused and specialized, staged, or cut (--no-chain).
void ExpectPerOpSumsToTotals(const workloads::Workload& w) {
  BlackBoxOptimizer optimizer;
  StatusOr<core::OptimizationResult> result = optimizer.Optimize(w.flow);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  struct Mode {
    const char* name;
    bool fuse_chains;
    bool specialize;
  };
  for (const Mode& mode : {Mode{"fused", true, true},
                           Mode{"specialization off", true, false},
                           Mode{"no-chain", false, true}}) {
    SCOPED_TRACE(mode.name);
    ExecOptions eo;
    eo.fuse_chains = mode.fuse_chains;
    eo.enable_chain_specialization = mode.specialize;
    Executor exec(&result->annotated, eo);
    for (const auto& [src, data] : w.source_data) exec.BindSource(src, &data);
    ExecStats stats;
    StatusOr<DataSet> out = exec.Execute(result->best().physical, &stats);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    if (mode.fuse_chains && mode.specialize) {
      EXPECT_GT(stats.fused_chains, 0);
    }
    ASSERT_EQ(stats.per_op.size(), static_cast<size_t>(w.flow.num_ops()));
    ExecStats::OpMeters sum;
    for (int id = 0; id < w.flow.num_ops(); ++id) {
      const ExecStats::OpMeters& m = stats.per_op[static_cast<size_t>(id)];
      dataflow::OpKind kind = w.flow.op(id).kind;
      if (kind == dataflow::OpKind::kSource ||
          kind == dataflow::OpKind::kSink) {
        EXPECT_EQ(m.udf_calls, 0) << w.flow.op(id).name;
        EXPECT_EQ(m.rows_out, 0) << w.flow.op(id).name;
      }
      sum.udf_calls += m.udf_calls;
      sum.interp_instructions += m.interp_instructions;
      sum.cpu_burn_units += m.cpu_burn_units;
    }
    EXPECT_GT(stats.udf_calls, 0);
    EXPECT_EQ(sum.udf_calls, stats.udf_calls);
    EXPECT_EQ(sum.interp_instructions, stats.interp_instructions);
    EXPECT_EQ(sum.cpu_burn_units, stats.cpu_burn_units);
  }
}

TEST(Engine, PerOpMetersSumToPlanTotalsOnQ7) {
  workloads::TpchScale scale;
  scale.lineitems = 2000;
  scale.orders = 500;
  scale.customers = 100;
  scale.suppliers = 25;
  ExpectPerOpSumsToTotals(workloads::MakeTpchQ7(scale));
}

TEST(Engine, PerOpMetersSumToPlanTotalsOnTextMining) {
  workloads::TextMiningScale scale;
  scale.documents = 300;
  ExpectPerOpSumsToTotals(workloads::MakeTextMining(scale));
}

}  // namespace
}  // namespace engine
}  // namespace blackbox
