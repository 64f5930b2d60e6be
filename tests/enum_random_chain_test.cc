// Randomized property tests on generated unary-operator chains of Maps and
// Reduces. The BFS closure enumerator (EnumerateAlternatives) and the paper's
// Algorithm 1 transcription (EnumerateChainAlgorithm1) must derive exactly the
// same plan set, compared by canonical form; the optimizer's full closure
// (top_k = kAllPlans) must hold that same set; and the default ranked search
// must pick the closure's top plan.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/rng.h"
#include "core/optimizer_api.h"
#include "dataflow/annotate.h"
#include "enumerate/enumerate.h"
#include "tests/test_flows.h"

namespace blackbox {
namespace enumerate {
namespace {

constexpr int kArity = 4;

/// A random RAT Map over kArity integer fields: optional filter on one field,
/// an in-place modification of another, optionally an appended field. The
/// generator is biased toward partially-overlapping read/write sets so chains
/// land between the extremes (fully commuting, fully conflicting).
std::shared_ptr<const tac::Function> RandomChainMap(Rng* rng,
                                                    const std::string& name) {
  tac::FunctionBuilder b(name, 1, tac::UdfKind::kRat);
  tac::Reg ir = b.InputRecord(0);
  tac::Label skip = b.NewLabel();
  bool filtered = rng->Chance(0.4);
  if (filtered) {
    tac::Reg v = b.GetField(ir, static_cast<int>(rng->Uniform(0, kArity - 1)));
    b.BranchIfFalse(b.CmpGe(v, b.ConstInt(rng->Uniform(-40, 10))), skip);
  }
  tac::Reg out = b.Copy(ir);
  int target = static_cast<int>(rng->Uniform(0, kArity - 1));
  tac::Reg a = b.GetField(ir, static_cast<int>(rng->Uniform(0, kArity - 1)));
  b.SetField(out, target, b.Add(a, b.ConstInt(rng->Uniform(1, 5))));
  if (rng->Chance(0.3)) {
    b.SetField(out, kArity, b.Mul(a, b.ConstInt(2)));
  }
  b.Emit(out);
  if (filtered) b.Bind(skip);
  b.Return();
  return testing::Built(std::move(b));
}

/// A Reduce that sums one field in place per group on a random key field —
/// the combinable shape, so closures can reorder KGP-compatible Maps past it.
std::shared_ptr<const tac::Function> RandomChainReduce(Rng* rng,
                                                       const std::string& name,
                                                       int* key_field) {
  *key_field = static_cast<int>(rng->Uniform(0, kArity - 1));
  int agg = (*key_field + 1 + static_cast<int>(rng->Uniform(0, kArity - 2))) %
            kArity;
  tac::FunctionBuilder b(name, 1, tac::UdfKind::kKat);
  tac::Reg n = b.InputCount(0);
  tac::Reg i = b.ConstInt(0);
  tac::Reg sum = b.ConstInt(0);
  tac::Label loop = b.NewLabel();
  tac::Label done = b.NewLabel();
  b.Bind(loop);
  b.BranchIfFalse(b.CmpLt(i, n), done);
  tac::Reg r = b.InputAt(0, i);
  b.AccumAdd(sum, b.GetField(r, agg));
  b.AccumAdd(i, b.ConstInt(1));
  b.Goto(loop);
  b.Bind(done);
  tac::Reg out = b.Copy(b.InputAt(0, b.ConstInt(0)));
  b.SetField(out, agg, sum);
  b.Emit(out);
  b.Return();
  return testing::Built(std::move(b));
}

std::set<std::string> Canon(const EnumResult& r) {
  std::set<std::string> out;
  for (const auto& p : r.plans) out.insert(reorder::CanonicalString(p));
  return out;
}

/// The seed-derived random chain shared by both differentials.
void BuildRandomChain(Rng* rng, dataflow::DataFlow* flow, int* chain_len_out,
                      int* reduce_at_out) {
  int prev = flow->AddSource("I", kArity, 1000, kArity * 9);
  int chain_len = static_cast<int>(rng->Uniform(3, 6));
  bool with_reduce = rng->Chance(0.5);
  int reduce_at = with_reduce
                      ? static_cast<int>(rng->Uniform(0, chain_len - 1))
                      : -1;
  for (int i = 0; i < chain_len; ++i) {
    std::string name = "op" + std::to_string(i);
    if (i == reduce_at) {
      int key_field = 0;
      auto udf = RandomChainReduce(rng, name, &key_field);
      dataflow::Hints hints;
      hints.distinct_keys = 50;
      prev = flow->AddReduce(name, prev, {key_field}, udf, hints);
    } else {
      prev = flow->AddMap(name, prev, RandomChainMap(rng, name));
    }
  }
  flow->SetSink("O", prev);
  *chain_len_out = chain_len;
  *reduce_at_out = reduce_at;
}

class RandomChainTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomChainTest, Algorithm1MatchesClosureEnumerator) {
  uint64_t seed = GetParam();
  Rng rng(seed * 131 + 17);

  dataflow::DataFlow flow;
  int chain_len = 0, reduce_at = -1;
  BuildRandomChain(&rng, &flow, &chain_len, &reduce_at);

  StatusOr<dataflow::AnnotatedFlow> af =
      dataflow::Annotate(flow, dataflow::AnnotationMode::kSca);
  ASSERT_TRUE(af.ok()) << af.status().ToString();

  StatusOr<EnumResult> closure = EnumerateAlternatives(*af);
  StatusOr<EnumResult> algo1 = EnumerateChainAlgorithm1(*af);
  ASSERT_TRUE(closure.ok()) << closure.status().ToString();
  ASSERT_TRUE(algo1.ok()) << algo1.status().ToString();
  EXPECT_FALSE(closure->truncated);
  EXPECT_FALSE(algo1->truncated);

  std::set<std::string> closure_set = Canon(*closure);
  std::set<std::string> algo1_set = Canon(*algo1);
  EXPECT_EQ(closure_set, algo1_set)
      << "seed " << seed << ": enumerators disagree on chain of length "
      << chain_len << " (reduce at " << reduce_at << ")\n"
      << flow.ToString();
  // Both must contain the original plan.
  std::string original =
      reorder::CanonicalString(reorder::PlanFromFlow(flow));
  EXPECT_EQ(closure_set.count(original), 1u);
}

// The ranked anytime search against the exhaustive closure on the same
// random chains: the top-1 must agree in cost AND in canonical logical and
// physical (strategy) form. This is the empirical validation of the
// admissible lower bound (DESIGN.md §3.4) — any bound term that overshoots
// a real plan's cost shows up here as a pruned optimum. The closure is
// itself the ranked search with no top-k bound, so it is first checked
// against the independent BFS enumerator.
TEST_P(RandomChainTest, RankedSearchMatchesClosureTopPlan) {
  uint64_t seed = GetParam();
  Rng rng(seed * 131 + 17);  // same stream → same chain as the test above

  dataflow::DataFlow flow;
  int chain_len = 0, reduce_at = -1;
  BuildRandomChain(&rng, &flow, &chain_len, &reduce_at);

  core::BlackBoxOptimizer::Options closure_opts;
  closure_opts.top_k = core::kAllPlans;
  StatusOr<core::OptimizationResult> closure =
      core::BlackBoxOptimizer(closure_opts).Optimize(flow);
  ASSERT_TRUE(closure.ok()) << closure.status().ToString();
  StatusOr<EnumResult> bfs = EnumerateAlternatives(closure->annotated);
  ASSERT_TRUE(bfs.ok()) << bfs.status().ToString();
  std::set<std::string> closure_set;
  for (const core::PlannedAlternative& alt : closure->ranked) {
    closure_set.insert(reorder::CanonicalString(alt.logical));
  }
  EXPECT_EQ(closure_set, Canon(*bfs))
      << "seed " << seed << ": the kAllPlans search and the BFS closure "
      << "hold different plan sets\n"
      << flow.ToString();
  EXPECT_EQ(closure->ranked.size(), bfs->plans.size()) << "seed " << seed;

  core::BlackBoxOptimizer::Options ranked_opts;
  StatusOr<core::OptimizationResult> ranked =
      core::BlackBoxOptimizer(ranked_opts).Optimize(flow);
  ASSERT_TRUE(ranked.ok()) << ranked.status().ToString();

  const std::string context = "seed " + std::to_string(seed) +
                              ", chain length " + std::to_string(chain_len) +
                              ", reduce at " + std::to_string(reduce_at);
  EXPECT_DOUBLE_EQ(ranked->best().cost, closure->best().cost)
      << context << ": ranked top-1 missed the closure best cost\n"
      << flow.ToString();
  EXPECT_EQ(reorder::CanonicalString(ranked->best().logical),
            reorder::CanonicalString(closure->best().logical))
      << context << ": ranked top-1 is a different logical plan";
  EXPECT_EQ(ranked->best().physical.ToString(flow),
            closure->best().physical.ToString(flow))
      << context << ": ranked top-1 chose different physical strategies";
  // The ranked search must never cost more plans than the closure holds.
  EXPECT_LE(ranked->plans_enumerated, closure->plans_enumerated) << context;
  // Counter bookkeeping: discovered = costed + pruned.
  EXPECT_EQ(ranked->num_alternatives,
            ranked->plans_enumerated + ranked->plans_pruned)
      << context;
}

INSTANTIATE_TEST_SUITE_P(RandomChains, RandomChainTest,
                         ::testing::Range<uint64_t>(1, 61));

}  // namespace
}  // namespace enumerate
}  // namespace blackbox
