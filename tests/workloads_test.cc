// End-to-end tests over the four evaluation workloads: enumeration counts
// (Table 1), the optimizer's full closure against the independent BFS
// enumerator and its max_plans truncation rule, SCA-vs-manual agreement, and
// the key safety property — every enumerated alternative produces the same
// output data set.

#include <gtest/gtest.h>

#include <set>

#include "api/optimized_program.h"
#include "core/optimizer_api.h"
#include "engine/executor.h"
#include "enumerate/enumerate.h"
#include "workloads/clickstream.h"
#include "workloads/textmining.h"
#include "workloads/tpch.h"

namespace blackbox {
namespace {

using core::BlackBoxOptimizer;
using dataflow::AnnotationMode;
using workloads::Workload;

size_t CountAlternatives(const Workload& w, AnnotationMode mode) {
  BlackBoxOptimizer::Options opts;
  opts.mode = mode;
  // Table 1 counts the FULL closure; the default ranked search stops early.
  opts.top_k = core::kAllPlans;
  BlackBoxOptimizer optimizer(opts);
  StatusOr<core::OptimizationResult> result = optimizer.Optimize(w.flow);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return 0;
  return result->num_alternatives;
}

/// Executes every enumerated alternative and checks bag equality of outputs —
/// the safety contract of §5 ("all plans produce the same query result").
void CheckAllPlansEquivalent(const Workload& w, AnnotationMode mode,
                             size_t max_checked = 64) {
  BlackBoxOptimizer::Options opts;
  opts.mode = mode;
  // The safety contract quantifies over EVERY valid reordering.
  opts.top_k = core::kAllPlans;
  BlackBoxOptimizer optimizer(opts);
  StatusOr<core::OptimizationResult> result = optimizer.Optimize(w.flow);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  engine::ExecOptions eo;
  eo.dop = 4;
  engine::Executor exec(&result->annotated, eo);
  for (const auto& [src, data] : w.source_data) exec.BindSource(src, &data);

  StatusOr<DataSet> reference = exec.Execute(result->ranked[0].physical);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  size_t n = std::min(result->ranked.size(), max_checked);
  for (size_t i = 1; i < n; ++i) {
    StatusOr<DataSet> out = exec.Execute(result->ranked[i].physical);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_TRUE(reference->BagEquals(*out))
        << "plan rank " << i + 1 << " produced a different result ("
        << out->size() << " vs " << reference->size() << " records):\n"
        << reorder::PlanToString(result->ranked[i].logical, w.flow);
  }
}

workloads::TpchScale SmallTpch() {
  workloads::TpchScale s;
  s.suppliers = 20;
  s.customers = 60;
  s.orders = 300;
  s.lineitems = 1200;
  return s;
}

workloads::ClickstreamScale SmallClicks() {
  workloads::ClickstreamScale s;
  s.sessions = 300;
  s.avg_clicks_per_session = 5;
  s.users = 50;
  return s;
}

workloads::TextMiningScale SmallText() {
  workloads::TextMiningScale s;
  s.documents = 400;
  s.preprocess_burn = 1;
  s.gene_burn = 1;
  s.drug_burn = 1;
  s.abbrev_burn = 1;
  s.sentence_burn = 1;
  s.relation_burn = 1;
  return s;
}

// --- Table 1: enumerated orders ---

TEST(Table1, ClickstreamManualEnumeratesFourOrders) {
  Workload w = workloads::MakeClickstream(SmallClicks());
  EXPECT_EQ(CountAlternatives(w, AnnotationMode::kManual), 4u);
}

TEST(Table1, ClickstreamScaEnumeratesThreeOrders) {
  // SCA cannot resolve the computed field index in "append user info" and
  // conservatively rejects the join rotation (75% of the manual plan count).
  Workload w = workloads::MakeClickstream(SmallClicks());
  EXPECT_EQ(CountAlternatives(w, AnnotationMode::kSca), 3u);
}

TEST(Table1, Q15EnumeratesFourOrdersBothModes) {
  Workload w = workloads::MakeTpchQ15(SmallTpch());
  EXPECT_EQ(CountAlternatives(w, AnnotationMode::kManual), 4u);
  EXPECT_EQ(CountAlternatives(w, AnnotationMode::kSca), 4u);
}

TEST(Table1, TextMiningEnumeratesTwentyFourOrdersBothModes) {
  Workload w = workloads::MakeTextMining(SmallText());
  EXPECT_EQ(CountAlternatives(w, AnnotationMode::kManual), 24u);
  EXPECT_EQ(CountAlternatives(w, AnnotationMode::kSca), 24u);
}

TEST(Table1, Q7ScaMatchesManualCount) {
  Workload w = workloads::MakeTpchQ7(SmallTpch());
  size_t manual = CountAlternatives(w, AnnotationMode::kManual);
  size_t sca = CountAlternatives(w, AnnotationMode::kSca);
  EXPECT_EQ(manual, sca);
  EXPECT_GT(manual, 100u);  // a rich bushy space (paper: 2518)
}

// --- The full closure: top_k = kAllPlans vs the BFS reference ---

std::set<std::string> RankedCanon(const core::OptimizationResult& r) {
  std::set<std::string> out;
  for (const auto& alt : r.ranked) {
    out.insert(reorder::CanonicalString(alt.logical));
  }
  return out;
}

// The optimizer's closure is the best-first search with no top-k bound; the
// oracle tests that iterate it need it to hold exactly the plans the
// independent BFS enumerator derives from the same annotation.
TEST(Closure, AllPlansSearchMatchesBfsEnumeratorOnSeedWorkloads) {
  struct Case {
    Workload w;
    AnnotationMode mode;
  };
  for (const Case& c :
       {Case{workloads::MakeTpchQ7(SmallTpch()), AnnotationMode::kSca},
        Case{workloads::MakeTextMining(SmallText()), AnnotationMode::kSca},
        Case{workloads::MakeClickstream(SmallClicks()), AnnotationMode::kSca},
        Case{workloads::MakeClickstream(SmallClicks()),
             AnnotationMode::kManual}}) {
    SCOPED_TRACE(c.w.name);
    BlackBoxOptimizer::Options opts;
    opts.mode = c.mode;
    opts.top_k = core::kAllPlans;
    StatusOr<core::OptimizationResult> all =
        BlackBoxOptimizer(opts).Optimize(c.w.flow);
    ASSERT_TRUE(all.ok()) << all.status().ToString();
    StatusOr<enumerate::EnumResult> bfs =
        enumerate::EnumerateAlternatives(all->annotated);
    ASSERT_TRUE(bfs.ok()) << bfs.status().ToString();

    std::set<std::string> bfs_set;
    for (const auto& p : bfs->plans) {
      bfs_set.insert(reorder::CanonicalString(p));
    }
    EXPECT_EQ(RankedCanon(*all), bfs_set);
    EXPECT_EQ(all->ranked.size(), bfs->plans.size());
    EXPECT_EQ(all->num_alternatives, bfs->plans.size());
    EXPECT_EQ(all->plans_pruned, 0u);
    EXPECT_FALSE(all->stopped_early);
    EXPECT_FALSE(all->truncated);
  }
}

// Truncation order (RankedOptions::max_plans): below the closure size the
// result keeps the first max_plans plans discovered best-first — the
// authored plan is discovered first, so it is always kept.
TEST(Closure, MaxPlansKeepsTheFirstPlansDiscoveredBestFirst) {
  Workload w = workloads::MakeTpchQ7(SmallTpch());
  api::OptimizeOptions options;
  options.top_k = core::kAllPlans;
  options.use_plan_cache = false;
  options.enum_options.max_plans = 50;
  StatusOr<api::OptimizedProgram> program =
      api::OptimizeFlow(w.flow, api::ScaProvider(), options);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  ASSERT_GT(CountAlternatives(w, AnnotationMode::kSca), 50u);
  EXPECT_EQ(program->ranked().size(), 50u);
  EXPECT_TRUE(program->truncated());
  EXPECT_GE(program->ImplementedIndex(), 0);
}

// --- Safety: all alternatives are output-equivalent ---

TEST(PlanEquivalence, Q15AllPlansProduceSameResult) {
  Workload w = workloads::MakeTpchQ15(SmallTpch());
  CheckAllPlansEquivalent(w, AnnotationMode::kSca);
}

TEST(PlanEquivalence, ClickstreamAllPlansProduceSameResult) {
  Workload w = workloads::MakeClickstream(SmallClicks());
  CheckAllPlansEquivalent(w, AnnotationMode::kManual);
}

TEST(PlanEquivalence, TextMiningAllPlansProduceSameResult) {
  Workload w = workloads::MakeTextMining(SmallText());
  CheckAllPlansEquivalent(w, AnnotationMode::kSca);
}

TEST(PlanEquivalence, Q7SampledPlansProduceSameResult) {
  workloads::TpchScale s = SmallTpch();
  s.lineitems = 600;
  Workload w = workloads::MakeTpchQ7(s);
  CheckAllPlansEquivalent(w, AnnotationMode::kSca, /*max_checked=*/24);
}

// --- SCA conservatism: the SCA plan set is a subset of the manual one ---

TEST(Conservatism, ScaPlanSetIsSubsetOfManual) {
  for (Workload w :
       {workloads::MakeClickstream(SmallClicks()),
        workloads::MakeTpchQ15(SmallTpch()),
        workloads::MakeTextMining(SmallText())}) {
    auto plans = [&](AnnotationMode mode) {
      BlackBoxOptimizer::Options opts;
      opts.mode = mode;
      // Subset inclusion must compare full closures, not ranked top-k's.
      opts.top_k = core::kAllPlans;
      StatusOr<core::OptimizationResult> r =
          BlackBoxOptimizer(opts).Optimize(w.flow);
      EXPECT_TRUE(r.ok());
      return RankedCanon(*r);
    };
    std::set<std::string> manual = plans(AnnotationMode::kManual);
    std::set<std::string> sca = plans(AnnotationMode::kSca);
    for (const std::string& k : sca) {
      EXPECT_TRUE(manual.count(k)) << w.name << ": SCA-only plan " << k;
    }
  }
}

}  // namespace
}  // namespace blackbox
