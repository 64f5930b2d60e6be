// Tests for the fluent pipeline API (src/api/): build-time validation on
// typed Stream handles, pluggable annotation providers, the runnable
// OptimizedProgram, and — most importantly — round-trip equivalence: a flow
// built through the Pipeline facade and the same flow built through the
// legacy DataFlow API must produce identical annotated summaries, plan
// counts, and ranked costs.

#include <gtest/gtest.h>

#include "api/pipeline.h"
#include "core/optimizer_api.h"
#include "reorder/plan.h"
#include "tests/test_flows.h"
#include "workloads/clickstream.h"
#include "workloads/textmining.h"
#include "workloads/tpch.h"

namespace blackbox {
namespace {

using api::OpOptions;
using api::Pipeline;
using api::Stream;

const dataflow::Operator& FindOp(const dataflow::DataFlow& flow,
                                 const std::string& name) {
  for (int i = 0; i < flow.num_ops(); ++i) {
    if (flow.op(i).name == name) return flow.op(i);
  }
  ADD_FAILURE() << "operator not found: " << name;
  static dataflow::Operator missing;
  return missing;
}

// --- Round-trip equivalence ------------------------------------------------

/// Checks that the pipeline-built `flow` and a legacy-built `mirror` agree on
/// annotated summaries, plan counts, plan sets, and ranked costs, in both
/// annotation modes. The legacy side runs through core::BlackBoxOptimizer,
/// the pipeline side through api::OptimizeFlow, so the facade lowering itself
/// is under test.
void ExpectRoundTrip(const dataflow::DataFlow& pipeline_flow,
                     const dataflow::DataFlow& legacy_flow) {
  for (auto mode : {dataflow::AnnotationMode::kSca,
                    dataflow::AnnotationMode::kManual}) {
    SCOPED_TRACE(mode == dataflow::AnnotationMode::kSca ? "sca" : "manual");

    StatusOr<dataflow::AnnotatedFlow> af_pipe =
        dataflow::Annotate(pipeline_flow, mode);
    StatusOr<dataflow::AnnotatedFlow> af_legacy =
        dataflow::Annotate(legacy_flow, mode);
    ASSERT_TRUE(af_pipe.ok()) << af_pipe.status().ToString();
    ASSERT_TRUE(af_legacy.ok()) << af_legacy.status().ToString();
    EXPECT_EQ(af_pipe->ToString(), af_legacy->ToString());

    core::BlackBoxOptimizer::Options copts;
    copts.mode = mode;
    StatusOr<core::OptimizationResult> legacy =
        core::BlackBoxOptimizer(copts).Optimize(legacy_flow);
    ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();

    // exec and weights share their defaults, so the api costs the same
    // cluster as the core optimizer.
    api::OptimizeOptions aopts;
    StatusOr<api::OptimizedProgram> program =
        mode == dataflow::AnnotationMode::kSca
            ? api::OptimizeFlow(pipeline_flow, api::ScaProvider(), aopts)
            : api::OptimizeFlow(pipeline_flow, api::ManualProvider(), aopts);
    ASSERT_TRUE(program.ok()) << program.status().ToString();

    ASSERT_EQ(program->num_alternatives(), legacy->num_alternatives);
    ASSERT_EQ(program->ranked().size(), legacy->ranked.size());
    for (size_t i = 0; i < legacy->ranked.size(); ++i) {
      EXPECT_DOUBLE_EQ(program->ranked()[i].cost, legacy->ranked[i].cost)
          << "rank " << i;
      EXPECT_EQ(reorder::CanonicalString(program->ranked()[i].logical),
                reorder::CanonicalString(legacy->ranked[i].logical))
          << "rank " << i;
    }
  }
}

TEST(PipelineRoundTrip, TpchQ7MatchesLegacyBuilder) {
  workloads::TpchScale scale;
  scale.lineitems = 800;
  scale.orders = 150;
  scale.customers = 40;
  scale.suppliers = 15;
  workloads::Workload w = workloads::MakeTpchQ7(scale);

  // The legacy mirror: the same flow hand-built through the DataFlow API
  // (the construction the workloads used before the facade existed). UDFs,
  // hints, and manual summaries are shared with the pipeline-built flow; the
  // operator structure — ids, inputs, keys — is written out by hand.
  dataflow::DataFlow legacy;
  int li = legacy.AddSource("lineitem", 5, scale.lineitems, 48);
  int s = legacy.AddSource("supplier", 2, scale.suppliers, 20, {0});
  int o = legacy.AddSource("orders", 2, scale.orders, 20, {0});
  int c = legacy.AddSource("customer", 2, scale.customers, 20, {0});
  int n1 = legacy.AddSource("nation1", 2, scale.nations, 24, {0});
  int n2 = legacy.AddSource("nation2", 2, scale.nations, 24, {0});

  auto add_map = [&](const char* name, int input) {
    const dataflow::Operator& op = FindOp(w.flow, name);
    int id = legacy.AddMap(name, input, op.udf, op.hints);
    legacy.op(id).manual_summary = op.manual_summary;
    return id;
  };
  auto add_match = [&](const char* name, int left, int right,
                       std::vector<int> lk, std::vector<int> rk) {
    const dataflow::Operator& op = FindOp(w.flow, name);
    int id = legacy.AddMatch(name, left, right, std::move(lk), std::move(rk),
                             op.udf, op.hints);
    legacy.op(id).manual_summary = op.manual_summary;
    return id;
  };

  int sig = add_map("q7_filter_prepare", li);
  int jls = add_match("q7_join_l_s", sig, s, {1}, {0});
  int jlo = add_match("q7_join_l_o", jls, o, {0}, {0});
  int joc = add_match("q7_join_o_c", jlo, c, {10}, {0});
  int jcn1 = add_match("q7_join_c_n1", joc, n1, {12}, {0});
  int jsn2 = add_match("q7_join_s_n2", jcn1, n2, {8}, {0});
  {
    const dataflow::Operator& op = FindOp(w.flow, "q7_sum_volume");
    int gam = legacy.AddReduce("q7_sum_volume", jsn2, {14, 16, 5}, op.udf,
                               op.hints);
    legacy.op(gam).manual_summary = op.manual_summary;
    int dis = add_map("q7_nation_pair_filter", gam);
    legacy.SetSink("q7_sink", dis);
  }

  ExpectRoundTrip(w.flow, legacy);
}

TEST(PipelineRoundTrip, ClickstreamMatchesLegacyBuilder) {
  workloads::ClickstreamScale scale;
  scale.sessions = 300;
  scale.users = 60;
  workloads::Workload w = workloads::MakeClickstream(scale);

  dataflow::DataFlow legacy;
  int64_t total_clicks = scale.sessions * scale.avg_clicks_per_session;
  int64_t logins =
      static_cast<int64_t>(scale.sessions * scale.logged_in_fraction);
  int click = legacy.AddSource("click", 4, total_clicks, 60);
  int login = legacy.AddSource("login", 2, logins, 18, {0});
  int user = legacy.AddSource("user", 4, scale.users, 46, {0});

  const dataflow::Operator& r1_op = FindOp(w.flow, "filter_buy_sessions");
  int r1 = legacy.AddReduce("filter_buy_sessions", click, {0}, r1_op.udf,
                            r1_op.hints);
  legacy.op(r1).manual_summary = r1_op.manual_summary;
  legacy.op(r1).kat_behavior = r1_op.kat_behavior;

  const dataflow::Operator& r2_op = FindOp(w.flow, "condense_sessions");
  int r2 = legacy.AddReduce("condense_sessions", r1, {0}, r2_op.udf,
                            r2_op.hints);
  legacy.op(r2).manual_summary = r2_op.manual_summary;

  const dataflow::Operator& m1_op =
      FindOp(w.flow, "filter_logged_in_sessions");
  int m1 = legacy.AddMatch("filter_logged_in_sessions", r2, login, {0}, {0},
                           m1_op.udf, m1_op.hints);
  legacy.op(m1).manual_summary = m1_op.manual_summary;

  const dataflow::Operator& m2_op = FindOp(w.flow, "append_user_info");
  int m2 = legacy.AddMatch("append_user_info", m1, user, {7}, {0}, m2_op.udf,
                           m2_op.hints);
  legacy.op(m2).manual_summary = m2_op.manual_summary;

  legacy.SetSink("clickstream_sink", m2);

  ExpectRoundTrip(w.flow, legacy);
}

// --- Build-time validation -------------------------------------------------

TEST(Pipeline, StreamsCarryArity) {
  Pipeline p;
  Stream src = p.Source("I", 2, {.rows = 10});
  EXPECT_EQ(src.arity(), 2);

  // f1 copies the input: arity preserved.
  Stream m = src.Map("abs", testing::MakeAbsUdf());
  EXPECT_EQ(m.arity(), 2);
  EXPECT_TRUE(p.status().ok());
}

TEST(Pipeline, ArityGrowsAcrossJoins) {
  workloads::TpchScale scale;
  scale.lineitems = 10;
  Pipeline p;
  Stream a = p.Source("a", 3, {.rows = 10});
  Stream b = p.Source("b", 2, {.rows = 10, .unique_fields = {0}});
  Stream j = a.MatchWith("j", b, {0}, {0},
                         workloads::MakeConcatJoinUdf("j"),
                         {.summary = workloads::ConcatJoinSummary()});
  EXPECT_EQ(j.arity(), 5);  // concat of 3 + 2
}

TEST(Pipeline, RejectsOutOfRangeKeyAtBuildTime) {
  Pipeline p;
  Stream src = p.Source("I", 2, {.rows = 10});
  // Key field 5 does not exist on an arity-2 stream: rejected immediately,
  // not at Validate() time.
  Stream bad = src.ReduceBy("group", {5}, testing::MakeAbsUdf());
  EXPECT_FALSE(bad.ok());
  EXPECT_FALSE(p.status().ok());
  EXPECT_NE(p.status().ToString().find("key field 5"), std::string::npos)
      << p.status().ToString();

  // The error survives to Optimize(), and downstream use of the poisoned
  // handle is a silent no-op instead of a crash.
  Stream worse = bad.Map("after", testing::MakeAbsUdf());
  EXPECT_FALSE(worse.ok());
  StatusOr<api::OptimizedProgram> program = p.Optimize();
  EXPECT_FALSE(program.ok());
}

TEST(Pipeline, RejectsConsumingAStreamTwice) {
  Pipeline p;
  Stream src = p.Source("I", 2, {.rows = 10});
  Stream m1 = src.Map("m1", testing::MakeAbsUdf());
  ASSERT_TRUE(m1.ok());
  Stream m2 = src.Map("m2", testing::MakeAbsUdf());
  EXPECT_FALSE(m2.ok());
  EXPECT_NE(p.status().ToString().find("already consumed"), std::string::npos)
      << p.status().ToString();
}

TEST(Pipeline, RejectsInconsistentCopyInputSummary) {
  // A hand-written summary claiming to copy input 1 of a unary operator must
  // be rejected at build time, not read out of bounds.
  Pipeline p;
  Stream src = p.Source("I", 2, {.rows = 10});
  sca::LocalUdfSummary bogus;
  bogus.num_inputs = 1;
  bogus.out_kind = sca::OutputKind::kCopyOfInput;
  bogus.copy_input = 1;
  Stream m = src.Map("m", testing::MakeAbsUdf(), {.summary = bogus});
  EXPECT_FALSE(m.ok());
  EXPECT_NE(p.status().ToString().find("copy_input"), std::string::npos)
      << p.status().ToString();
}

TEST(Pipeline, RejectsForeignStreams) {
  Pipeline p1, p2;
  Stream a = p1.Source("a", 2, {.rows = 10});
  Stream b = p2.Source("b", 2, {.rows = 10});
  Stream j = a.MatchWith("j", b, {0}, {0}, workloads::MakeConcatJoinUdf("j"),
                         {.summary = workloads::ConcatJoinSummary()});
  EXPECT_FALSE(j.ok());
  EXPECT_FALSE(p1.status().ok());
}

TEST(Pipeline, RequiresASink) {
  Pipeline p;
  Stream src = p.Source("I", 2, {.rows = 10});
  src.Map("m", testing::MakeAbsUdf());
  StatusOr<api::OptimizedProgram> program = p.Optimize();
  ASSERT_FALSE(program.ok());
  EXPECT_NE(program.status().ToString().find("no sink"), std::string::npos);
}

// --- Providers -------------------------------------------------------------

TEST(AnnotationProviders, ScaVsManualReproduceTable1OnClickstream) {
  workloads::ClickstreamScale scale;
  scale.sessions = 200;
  workloads::Workload w = workloads::MakeClickstream(scale);

  StatusOr<api::OptimizedProgram> manual =
      api::OptimizeFlow(w.flow, api::ManualProvider());
  StatusOr<api::OptimizedProgram> sca =
      api::OptimizeFlow(w.flow, api::ScaProvider());
  ASSERT_TRUE(manual.ok());
  ASSERT_TRUE(sca.ok());
  EXPECT_EQ(manual->num_alternatives(), 4u);
  EXPECT_EQ(sca->num_alternatives(), 3u);
}

TEST(AnnotationProviders, ManualProviderErrorsWithoutSummaries) {
  Pipeline p;
  Stream src = p.Source("I", 2, {.rows = 10});
  src.Map("m", testing::MakeAbsUdf()).Sink("O");  // no manual summary
  StatusOr<api::OptimizedProgram> program = p.Optimize(api::ManualProvider());
  ASSERT_FALSE(program.ok());
  EXPECT_NE(program.status().ToString().find("manual annotation"),
            std::string::npos);
}

TEST(AnnotationProviders, ProfilerRefinesHints) {
  workloads::TpchScale scale;
  scale.lineitems = 2000;
  scale.suppliers = 30;
  workloads::Workload w = workloads::MakeTpchQ15(scale);

  api::SourceBindings sources;
  for (const auto& [id, data] : w.source_data) sources[id] = &data;

  api::ProfilerProvider provider({.reset_hints = true});
  StatusOr<dataflow::AnnotatedFlow> af = provider.Annotate(w.flow, sources);
  ASSERT_TRUE(af.ok()) << af.status().ToString();

  // The shipdate filter keeps ~25% of the records; the measured selectivity
  // must have replaced the reset (1.0) hint on the provider's snapshot while
  // the caller's flow is untouched.
  const dataflow::Operator& profiled =
      FindOp(*af->flow, "q15_filter_shipdate");
  EXPECT_LT(profiled.hints.selectivity, 0.6);
  EXPECT_GT(profiled.hints.selectivity, 0.05);
  EXPECT_DOUBLE_EQ(FindOp(w.flow, "q15_filter_shipdate").hints.selectivity,
                   0.25);

  // And the full optimize-and-run path works with profiled hints.
  StatusOr<api::OptimizedProgram> program =
      api::OptimizeFlow(w.flow, provider, {}, sources);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  StatusOr<DataSet> out = program->RunBest();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_GT(out->size(), 0u);
}

TEST(AnnotationProviders, ProfilerRequiresBoundSources) {
  workloads::TpchScale scale;
  scale.lineitems = 100;
  workloads::Workload w = workloads::MakeTpchQ15(scale);
  StatusOr<api::OptimizedProgram> program =
      api::OptimizeFlow(w.flow, api::ProfilerProvider());
  ASSERT_FALSE(program.ok());
  EXPECT_NE(program.status().ToString().find("no bound data"),
            std::string::npos);
}

// --- OptimizedProgram ------------------------------------------------------

TEST(OptimizedProgram, BuildsOptimizesAndRuns) {
  Pipeline p;
  dataflow::Hints filter_hints;
  filter_hints.selectivity = 0.5;
  Stream src = p.Source("I", 2, {.rows = 1000, .avg_bytes = 18});
  src.Map("map1_abs", testing::MakeAbsUdf())
      .Map("map2_filter", testing::MakeFilterNonNegUdf(),
           {.hints = filter_hints})
      .Map("map3_sum", testing::MakeSumUdf())
      .Sink("O");

  StatusOr<api::OptimizedProgram> program = p.Optimize();
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_GT(program->num_alternatives(), 1u);
  EXPECT_GE(program->ImplementedIndex(), 0);

  DataSet data;
  data.Add(Record({Value(int64_t{2}), Value(int64_t{-3})}));
  data.Add(Record({Value(int64_t{-2}), Value(int64_t{-3})}));
  data.Add(Record({Value(int64_t{10}), Value(int64_t{5})}));
  ASSERT_TRUE(program->BindSource(src, &data).ok());

  // Every ranked alternative computes the same result.
  StatusOr<DataSet> best = program->RunBest();
  ASSERT_TRUE(best.ok()) << best.status().ToString();
  EXPECT_EQ(best->size(), 2u);
  for (size_t i = 1; i < program->ranked().size(); ++i) {
    StatusOr<DataSet> alt = program->Run(i);
    ASSERT_TRUE(alt.ok()) << alt.status().ToString();
    EXPECT_EQ(alt->ToString(), best->ToString()) << "alternative " << i;
  }

  StatusOr<DataSet> oob = program->Run(program->ranked().size());
  ASSERT_FALSE(oob.ok());
  EXPECT_EQ(oob.status().code(), Status::Code::kOutOfRange);
}

TEST(OptimizedProgram, PipelineBindingsCarryThrough) {
  Pipeline p;
  Stream src = p.Source("I", 2, {.rows = 10});
  src.Map("m", testing::MakeAbsUdf()).Sink("O");

  DataSet data;
  data.Add(Record({Value(int64_t{1}), Value(int64_t{-4})}));
  ASSERT_TRUE(p.BindSource(src, &data).ok());

  StatusOr<api::OptimizedProgram> program = p.Optimize();
  ASSERT_TRUE(program.ok());
  StatusOr<DataSet> out = program->RunBest();  // no re-binding needed
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->size(), 1u);
}

TEST(OptimizedProgram, RejectsHandlesFromOtherPipelines) {
  Pipeline p1, p2;
  Stream src1 = p1.Source("I", 2, {.rows = 10});
  src1.Map("m", testing::MakeAbsUdf()).Sink("O");
  Stream src2 = p2.Source("I", 2, {.rows = 10});  // same id, other pipeline
  src2.Map("m", testing::MakeAbsUdf()).Sink("O");

  StatusOr<api::OptimizedProgram> program = p1.Optimize();
  ASSERT_TRUE(program.ok());
  DataSet data;
  Status st = program->BindSource(src2, &data);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("different pipeline"), std::string::npos)
      << st.ToString();
  EXPECT_TRUE(program->BindSource(src1, &data).ok());
}

TEST(OptimizedProgram, FlowProgramsBindById) {
  // Programs optimized from a raw DataFlow have no pipeline provenance:
  // Stream-based binding is rejected, BindSources works.
  workloads::TextMiningScale scale;
  scale.documents = 50;
  workloads::Workload w = workloads::MakeTextMining(scale);
  StatusOr<api::OptimizedProgram> program =
      api::OptimizeFlow(w.flow, api::ScaProvider());
  ASSERT_TRUE(program.ok());

  Pipeline p;
  Stream foreign = p.Source("docs", 2, {.rows = 10});
  DataSet data;
  ASSERT_FALSE(program->BindSource(foreign, &data).ok());
  ASSERT_TRUE(program->BindSources(w.source_data).ok());
  StatusOr<DataSet> out = program->RunBest();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
}

TEST(OptimizedProgram, RunWithoutBindingsFailsCleanly) {
  Pipeline p;
  Stream src = p.Source("I", 2, {.rows = 10});
  src.Map("m", testing::MakeAbsUdf()).Sink("O");
  StatusOr<api::OptimizedProgram> program = p.Optimize();
  ASSERT_TRUE(program.ok());
  StatusOr<DataSet> out = program->RunBest();
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.status().ToString().find("no bound data"), std::string::npos);
}

TEST(OptimizedProgram, OutlivesThePipeline) {
  DataSet data;
  data.Add(Record({Value(int64_t{3}), Value(int64_t{4})}));
  StatusOr<api::OptimizedProgram> program = [&] {
    Pipeline p;
    Stream src = p.Source("I", 2, {.rows = 10});
    src.Map("m", testing::MakeAbsUdf()).Sink("O");
    auto prog = p.Optimize();
    if (prog.ok()) (void)prog->BindSource(src, &data);
    return prog;
  }();  // pipeline destroyed here
  ASSERT_TRUE(program.ok());
  StatusOr<DataSet> out = program->RunBest();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->size(), 1u);
}

// --- Zero-alternative guard (satellite fix) --------------------------------

TEST(Optimize, PrunedPlanSpaceIsAnErrorNotACrash) {
  // A reorderable chain whose plan space exceeds max_plans = 0: Optimize
  // must surface the pruning as a Status instead of handing back a program
  // whose best() would dereference an empty ranked list.
  Pipeline p;
  Stream src = p.Source("I", 2, {.rows = 10});
  src.Map("m1", testing::MakeAbsUdf())
      .Map("m2", testing::MakeFilterNonNegUdf())
      .Map("m3", testing::MakeSumUdf())
      .Sink("O");
  api::OptimizeOptions options;
  options.enum_options.max_plans = 0;
  StatusOr<api::OptimizedProgram> program = p.Optimize(options);
  ASSERT_FALSE(program.ok());
  EXPECT_EQ(program.status().code(), Status::Code::kOutOfRange);
}

TEST(Optimize, ContradictoryCostModelClusterIsRejected) {
  // The cost model always prices the exec cluster, which would silently
  // overwrite a deliberately different weights.dop; that contradiction must
  // surface as an error.
  Pipeline p;
  Stream src = p.Source("I", 2, {.rows = 10});
  src.Map("m", testing::MakeAbsUdf()).Sink("O");
  api::OptimizeOptions options;
  options.weights.dop = options.exec.dop * 2;
  StatusOr<api::OptimizedProgram> program = p.Optimize(options);
  ASSERT_FALSE(program.ok());
  EXPECT_EQ(program.status().code(), Status::Code::kInvalidArgument);
}

TEST(OptimizationResultDeathTest, BestOnEmptyResultAborts) {
  core::OptimizationResult empty;
  EXPECT_DEATH(empty.best(), "no ranked alternatives");
}

}  // namespace
}  // namespace blackbox
