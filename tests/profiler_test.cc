// Tests for the runtime profiler (the paper's §9 future-work item): measured
// selectivities / key cardinalities must approximate the known ground truth
// of the workload generators, the optimizer fed with profiled hints must
// agree with the manually hinted one on the best plan, and a profile must be
// a pure function of flow and data.

#include "api/profiler.h"

#include <gtest/gtest.h>

#include "core/optimizer_api.h"
#include "reorder/plan.h"
#include "workloads/clickstream.h"
#include "workloads/tpch.h"

namespace blackbox {
namespace api {
namespace {

std::map<int, const DataSet*> SourcePtrs(const workloads::Workload& w) {
  std::map<int, const DataSet*> out;
  for (const auto& [id, data] : w.source_data) out[id] = &data;
  return out;
}

TEST(Profiler, MeasuresQ15FilterSelectivity) {
  workloads::TpchScale scale;
  scale.lineitems = 20000;
  scale.suppliers = 100;
  workloads::Workload w = workloads::MakeTpchQ15(scale);

  StatusOr<FlowProfile> profile = ProfileFlow(w.flow, SourcePtrs(w));
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();

  // Operator 2 is the shipdate filter; the generator draws dates uniformly
  // over one year and the filter keeps one quarter.
  const OperatorProfile& sigma = profile->per_op.at(2);
  EXPECT_GT(sigma.calls, 500);
  EXPECT_NEAR(sigma.selectivity(), 0.25, 0.08);

  // Operator 3 (prepare) is one-to-one.
  EXPECT_DOUBLE_EQ(profile->per_op.at(3).selectivity(), 1.0);
}

TEST(Profiler, ScalesDistinctKeysToFullDataSize) {
  workloads::TpchScale scale;
  scale.lineitems = 40000;
  scale.suppliers = 100;
  workloads::Workload w = workloads::MakeTpchQ15(scale);

  ProfileOptions opts;
  opts.sample_records = 4000;  // 10% sample
  StatusOr<FlowProfile> profile = ProfileFlow(w.flow, SourcePtrs(w), opts);
  ASSERT_TRUE(profile.ok());

  // The Reduce keys on l_suppkey with 100 distinct suppliers. Every supplier
  // appears in a 4000-record sample with near-certainty, and nearly every one
  // more than once, so GEE scales almost nothing: ~100. Dividing the sample's
  // key count by the sample fraction would read ~1,000.
  const OperatorProfile& gamma = profile->per_op.at(4);
  EXPECT_GE(gamma.distinct_keys_scaled, 90);
  EXPECT_LE(gamma.distinct_keys_scaled, 140);
}

TEST(Profiler, ScalesSingletonKeysOfARowSample) {
  workloads::ClickstreamScale scale;
  scale.sessions = 20000;
  scale.users = 2000;
  workloads::Workload w = workloads::MakeClickstream(scale);

  StatusOr<FlowProfile> profile = ProfileFlow(w.flow, SourcePtrs(w));
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();

  // filter_buy_sessions groups the clicks by session: 20,000 keys, most of
  // them seen once in a 2,000-click sample. GEE scales those by
  // sqrt(1/q); dividing the whole key count by q read 189,683.
  ASSERT_EQ(w.flow.op(3).name, "filter_buy_sessions");
  const OperatorProfile& sessions = profile->per_op.at(3);
  EXPECT_GE(sessions.distinct_keys_scaled, 15000);
  EXPECT_LE(sessions.distinct_keys_scaled, 25000);
}

TEST(Profiler, KeyJoinDomainIsTheKeyCount) {
  workloads::TpchScale scale;
  scale.lineitems = 20000;
  scale.suppliers = 100;
  workloads::Workload w = workloads::MakeTpchQ15(scale);

  StatusOr<FlowProfile> profile = ProfileFlow(w.flow, SourcePtrs(w));
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();

  // Operator 5 joins the 100 suppliers (kept whole) with the per-supplier
  // revenue groups (a sample of them): every group finds its supplier, so
  // l_rows × r_rows / calls is exactly the supplier count, whatever the
  // sample fraction of the other side.
  ASSERT_EQ(w.flow.op(5).kind, dataflow::OpKind::kMatch);
  EXPECT_EQ(profile->per_op.at(5).distinct_keys_scaled, 100);
}

TEST(Profiler, ProfileIsDeterministic) {
  workloads::ClickstreamScale scale;
  scale.sessions = 4000;
  scale.users = 400;
  workloads::Workload w = workloads::MakeClickstream(scale);

  StatusOr<FlowProfile> first = ProfileFlow(w.flow, SourcePtrs(w));
  StatusOr<FlowProfile> second = ProfileFlow(w.flow, SourcePtrs(w));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_FALSE(first->per_op.empty());
  EXPECT_TRUE(*first == *second);

  dataflow::DataFlow a = w.flow;
  dataflow::DataFlow b = w.flow;
  ApplyProfile(*first, &a);
  ApplyProfile(*second, &b);
  for (int i = 0; i < a.num_ops(); ++i) {
    SCOPED_TRACE(a.op(i).name);
    EXPECT_EQ(a.op(i).hints.selectivity, b.op(i).hints.selectivity);
    EXPECT_EQ(a.op(i).hints.cpu_cost_per_call,
              b.op(i).hints.cpu_cost_per_call);
    EXPECT_EQ(a.op(i).hints.distinct_keys, b.op(i).hints.distinct_keys);
  }
}

TEST(Profiler, ProfiledQ15PicksTheHintedPlan) {
  workloads::TpchScale scale;
  scale.lineitems = 20000;
  scale.suppliers = 100;
  workloads::Workload w = workloads::MakeTpchQ15(scale);

  core::BlackBoxOptimizer::Options opts;
  opts.mode = dataflow::AnnotationMode::kSca;
  core::BlackBoxOptimizer optimizer(opts);
  StatusOr<core::OptimizationResult> hinted = optimizer.Optimize(w.flow);
  ASSERT_TRUE(hinted.ok()) << hinted.status().ToString();

  dataflow::DataFlow profiled_flow = w.flow;
  StatusOr<FlowProfile> profile = ProfileFlow(w.flow, SourcePtrs(w));
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  ApplyProfile(*profile, &profiled_flow);
  StatusOr<core::OptimizationResult> profiled =
      optimizer.Optimize(profiled_flow);
  ASSERT_TRUE(profiled.ok()) << profiled.status().ToString();

  EXPECT_EQ(reorder::CanonicalString(hinted->best().logical),
            reorder::CanonicalString(profiled->best().logical));
}

TEST(Profiler, ProfiledHintsReproduceTheManualBestPlan) {
  workloads::ClickstreamScale scale;
  scale.sessions = 4000;
  scale.users = 400;
  workloads::Workload w = workloads::MakeClickstream(scale);

  core::BlackBoxOptimizer::Options opts;
  opts.mode = dataflow::AnnotationMode::kManual;
  opts.weights.mem_budget_bytes = 64 << 10;
  core::BlackBoxOptimizer optimizer(opts);

  StatusOr<core::OptimizationResult> with_manual_hints =
      optimizer.Optimize(w.flow);
  ASSERT_TRUE(with_manual_hints.ok());

  // Strip all hints, profile, re-apply, re-optimize.
  workloads::Workload stripped = workloads::MakeClickstream(scale);
  for (int i = 0; i < stripped.flow.num_ops(); ++i) {
    stripped.flow.op(i).hints = dataflow::Hints();
  }
  StatusOr<FlowProfile> profile =
      ProfileFlow(stripped.flow, SourcePtrs(stripped));
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  ApplyProfile(*profile, &stripped.flow);

  StatusOr<core::OptimizationResult> with_profiled_hints =
      optimizer.Optimize(stripped.flow);
  ASSERT_TRUE(with_profiled_hints.ok());

  EXPECT_EQ(
      reorder::CanonicalString(with_manual_hints->best().logical),
      reorder::CanonicalString(with_profiled_hints->best().logical));
}

TEST(Profiler, FailsWithoutSourceData) {
  workloads::Workload w = workloads::MakeTpchQ15({});
  std::map<int, const DataSet*> empty;
  StatusOr<FlowProfile> profile = ProfileFlow(w.flow, empty);
  EXPECT_FALSE(profile.ok());
}

TEST(Profiler, ApplyProfileNormalizesCpuCosts) {
  workloads::TpchScale scale;
  scale.lineitems = 5000;
  workloads::Workload w = workloads::MakeTpchQ15(scale);
  StatusOr<FlowProfile> profile = ProfileFlow(w.flow, SourcePtrs(w));
  ASSERT_TRUE(profile.ok());
  ApplyProfile(*profile, &w.flow);
  double min_cost = 1e100;
  for (int i = 0; i < w.flow.num_ops(); ++i) {
    const dataflow::Operator& op = w.flow.op(i);
    if (op.kind == dataflow::OpKind::kSource ||
        op.kind == dataflow::OpKind::kSink) {
      continue;
    }
    EXPECT_GT(op.hints.cpu_cost_per_call, 0.0);
    min_cost = std::min(min_cost, op.hints.cpu_cost_per_call);
  }
  EXPECT_NEAR(min_cost, 1.0, 1e-9);
}

}  // namespace
}  // namespace api
}  // namespace blackbox
