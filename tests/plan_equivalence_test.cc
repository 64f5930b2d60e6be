// Differential plan-equivalence oracle (the safety net for the widened §7.1
// physical plan space AND the streaming data plane): enumerate the full
// reordering closure of each seed workload, execute EVERY costed alternative
// — whatever mix of ship strategies, hash vs sort-merge joins, sort-group vs
// combiner Reduces the physical optimizer picked for it — in fused-chain
// mode and in --no-chain mode, at 1 and at 8 worker threads, plus a
// data-skipping-off pass and a chain-specialization-off pass, and assert:
//   * the sorted sink output is byte-identical to the original plan's in
//     every (mode, threads, skipping, specialization) combination, and
//   * the network meter and the accounted disk traffic
//     (disk_bytes + skipped_spill_bytes) of each alternative are identical
//     across all combinations (fusion may only move peak_bytes; skipping
//     may only move read-back bytes into the skipped meter; specialization
//     may only drop interp_instructions — on the Map-chain-dominated
//     text-mining closure it must drop them by >= 2x on every rank).
//
// Registered under the `differential` ctest label with its own timeout (see
// CMakeLists.txt); CI runs it in the ASan/UBSan job as well.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "api/optimized_program.h"
#include "api/pipeline.h"
#include "engine/executor.h"
#include "reorder/plan.h"
#include "workloads/clickstream.h"
#include "workloads/textmining.h"
#include "workloads/tpch.h"

namespace blackbox {
namespace {

using optimizer::LocalStrategy;
using optimizer::PhysicalNode;

/// Canonical byte string of a sink output: records sorted, then serialized.
/// Two plans are judged equivalent iff these strings are identical — bag
/// equality expressed as byte equality, per the determinism contract.
std::string SortedOutputBytes(const DataSet& ds) {
  std::vector<Record> sorted = ds.records();
  std::sort(sorted.begin(), sorted.end());
  std::string out;
  for (const Record& r : sorted) {
    out += r.ToString();
    out += '\n';
  }
  return out;
}

void CountStrategies(const PhysicalNode& n, int* merge_joins, int* combiners) {
  if (n.local == LocalStrategy::kSortMergeJoin) ++*merge_joins;
  if (n.local == LocalStrategy::kPreAggregate) ++*combiners;
  for (const auto& c : n.children) CountStrategies(*c, merge_joins, combiners);
}

struct AltMeters {
  int64_t network_bytes = 0;
  int64_t disk_bytes = 0;
  int64_t skipped_spill_bytes = 0;
  int64_t interp_instructions = 0;
};

struct ClosureStats {
  size_t alternatives = 0;
  int merge_join_plans = 0;  // executed plans containing a sort-merge join
  int combiner_plans = 0;    // executed plans containing a combiner
  std::vector<AltMeters> meters;  // per executed rank, in ranked order
};

/// Optimizes `w` at the given worker-thread count and chain mode, executes
/// every ranked alternative, and asserts each one's sorted sink bytes equal
/// `*reference` (filling it from the original plan on first use).
ClosureStats RunClosure(const workloads::Workload& w,
                        const api::AnnotationProvider& provider, int threads,
                        bool fuse_chains, std::string* reference,
                        bool data_skipping = true, bool specialize = true) {
  api::OptimizeOptions options;
  options.exec.dop = 8;
  options.exec.mem_budget_bytes = 1 << 20;
  options.exec.num_threads = threads;
  options.exec.fuse_chains = fuse_chains;
  options.exec.enable_data_skipping = data_skipping;
  // Exec-level toggle only: the cost weights keep their defaults so every
  // combination optimizes over the identical ranked plan set.
  options.exec.enable_chain_specialization = specialize;
  // Differential execution is linear in the closure size; the cap keeps the
  // oracle tractable if a workload's plan space ever explodes.
  options.enum_options.max_plans = 512;
  // The oracle quantifies over the FULL closure, and each (threads, chain)
  // combination must be an independent optimization, not a cache alias.
  options.top_k = core::kAllPlans;
  options.use_plan_cache = false;

  api::SourceBindings sources;
  for (const auto& [id, data] : w.source_data) sources[id] = &data;
  StatusOr<api::OptimizedProgram> program =
      api::OptimizeFlow(w.flow, provider, options, sources);
  ClosureStats stats;
  if (!program.ok()) {
    ADD_FAILURE() << w.name << ": optimize failed: "
                  << program.status().ToString();
    return stats;
  }
  // A truncated closure would silently degrade the oracle to a partial
  // check; if a workload ever outgrows the cap, raise it deliberately.
  EXPECT_FALSE(program->truncated())
      << w.name << ": closure truncated at max_plans — oracle is partial";
  stats.alternatives = program->ranked().size();

  // The reference output is the *original* (implemented) plan's, which is
  // what the paper's semantics promise every reordering preserves.
  int original = program->ImplementedIndex();
  if (original < 0) {
    ADD_FAILURE() << w.name << ": original plan missing from closure";
    return stats;
  }
  if (reference->empty()) {
    StatusOr<DataSet> ref = program->Run(static_cast<size_t>(original));
    if (!ref.ok() || ref->empty()) {
      ADD_FAILURE() << w.name << ": reference run failed or empty: "
                    << ref.status().ToString();
      return stats;
    }
    *reference = SortedOutputBytes(*ref);
  }

  for (size_t i = 0; i < program->ranked().size(); ++i) {
    const core::PlannedAlternative& alt = program->ranked()[i];
    int merge = 0, comb = 0;
    CountStrategies(*alt.physical.root, &merge, &comb);
    if (merge > 0) ++stats.merge_join_plans;
    if (comb > 0) ++stats.combiner_plans;

    engine::ExecStats run_stats;
    StatusOr<DataSet> out = program->Run(i, &run_stats);
    if (!out.ok()) {
      ADD_FAILURE() << w.name << " rank " << alt.rank << ": "
                    << out.status().ToString();
      return stats;
    }
    stats.meters.push_back({run_stats.network_bytes, run_stats.disk_bytes,
                            run_stats.skipped_spill_bytes,
                            run_stats.interp_instructions});
    EXPECT_EQ(SortedOutputBytes(*out), *reference)
        << w.name << " rank " << alt.rank << " at " << threads
        << " thread(s), " << (fuse_chains ? "fused" : "no-chain")
        << " diverges from the original plan.\nlogical: "
        << reorder::PlanToString(alt.logical, w.flow)
        << "physical:\n" << alt.physical.ToString(w.flow);
    if (::testing::Test::HasFailure()) break;  // one dump is enough
  }
  return stats;
}

/// Runs the closure in all four (threads, chain-mode) combinations plus a
/// data-skipping-off pass against one shared reference output and asserts
/// the per-alternative network/disk meters are identical in every
/// combination — fusion and thread count may move wall time and peak_bytes,
/// never the byte meters. The disk invariant across chain modes is
/// disk_bytes + skipped_spill_bytes: fusion changes which batch boundaries
/// a join's run-skipping predicate sees, so the split between "read back"
/// and "provably skippable" may shift, while their sum (the traffic a
/// skipping-off run measures as disk_bytes alone) cannot.
struct ModeMatrix {
  ClosureStats serial_fused;
  ClosureStats parallel_fused;
  ClosureStats serial_unfused;
  ClosureStats parallel_unfused;
  ClosureStats serial_noskip;
  ClosureStats serial_nospec;
};

/// `min_instr_ratio` > 0 additionally asserts, per rank, that disabling
/// chain specialization multiplies interp_instructions by at least that
/// factor — the tentpole acceptance bar (2x) on the text-mining closure,
/// where every alternative is dominated by the fusable Map chain.
ModeMatrix RunAllModes(const workloads::Workload& w,
                       const api::AnnotationProvider& provider,
                       std::string* reference,
                       double min_instr_ratio = 0.0) {
  ModeMatrix m;
  m.serial_fused = RunClosure(w, provider, 1, /*fuse=*/true, reference);
  if (::testing::Test::HasFailure()) return m;
  m.parallel_fused = RunClosure(w, provider, 8, /*fuse=*/true, reference);
  if (::testing::Test::HasFailure()) return m;
  m.serial_unfused = RunClosure(w, provider, 1, /*fuse=*/false, reference);
  if (::testing::Test::HasFailure()) return m;
  m.parallel_unfused = RunClosure(w, provider, 8, /*fuse=*/false, reference);
  if (::testing::Test::HasFailure()) return m;
  m.serial_noskip = RunClosure(w, provider, 1, /*fuse=*/true, reference,
                               /*data_skipping=*/false);
  if (::testing::Test::HasFailure()) return m;
  m.serial_nospec = RunClosure(w, provider, 1, /*fuse=*/true, reference,
                               /*data_skipping=*/true, /*specialize=*/false);
  if (::testing::Test::HasFailure()) return m;

  EXPECT_EQ(m.serial_fused.alternatives, m.parallel_fused.alternatives);
  EXPECT_EQ(m.serial_fused.alternatives, m.serial_unfused.alternatives);
  EXPECT_EQ(m.serial_fused.alternatives, m.parallel_unfused.alternatives);
  EXPECT_EQ(m.serial_fused.alternatives, m.serial_noskip.alternatives);
  EXPECT_EQ(m.serial_fused.alternatives, m.serial_nospec.alternatives);
  EXPECT_EQ(m.serial_fused.meters.size(), m.serial_unfused.meters.size());
  EXPECT_EQ(m.serial_fused.meters.size(), m.serial_noskip.meters.size());
  EXPECT_EQ(m.serial_fused.meters.size(), m.serial_nospec.meters.size());
  if (::testing::Test::HasFailure()) return m;
  for (size_t i = 0; i < m.serial_fused.meters.size(); ++i) {
    const AltMeters& base = m.serial_fused.meters[i];
    for (const ClosureStats* other :
         {&m.parallel_fused, &m.serial_unfused, &m.parallel_unfused,
          &m.serial_noskip, &m.serial_nospec}) {
      EXPECT_EQ(base.network_bytes, other->meters[i].network_bytes)
          << w.name << " rank index " << i << ": network meter diverges";
      EXPECT_EQ(base.disk_bytes + base.skipped_spill_bytes,
                other->meters[i].disk_bytes +
                    other->meters[i].skipped_spill_bytes)
          << w.name << " rank index " << i
          << ": accounted disk traffic diverges";
    }
    // Skipping off must meter zero skipped bytes — its disk_bytes alone IS
    // the accounted traffic every skipping-on mode must reproduce.
    EXPECT_EQ(m.serial_noskip.meters[i].skipped_spill_bytes, 0)
        << w.name << " rank index " << i;
    if (min_instr_ratio > 0.0) {
      EXPECT_GE(static_cast<double>(m.serial_nospec.meters[i].interp_instructions),
                min_instr_ratio *
                    static_cast<double>(base.interp_instructions))
          << w.name << " rank index " << i
          << ": specialization fell below the " << min_instr_ratio
          << "x instruction-reduction bar";
    }
  }
  return m;
}

// The anytime ranked search must land on the same best-plan cost as the
// exhaustive closure for every seed workload — the cheap, execution-free
// half of the ranked-search acceptance bar (the randomized differential in
// enum_random_chain_test covers arbitrary chains).
TEST(PlanEquivalence, RankedSearchMatchesClosureBestCost) {
  api::ScaProvider sca;
  for (const workloads::Workload& w :
       {workloads::MakeTpchQ7({.suppliers = 20,
                               .customers = 80,
                               .orders = 400,
                               .lineitems = 2000}),
        workloads::MakeTextMining({.documents = 200}),
        workloads::MakeClickstream({.sessions = 200})}) {
    api::OptimizeOptions closure_opts;
    closure_opts.top_k = core::kAllPlans;
    closure_opts.use_plan_cache = false;
    StatusOr<api::OptimizedProgram> closure =
        api::OptimizeFlow(w.flow, sca, closure_opts);
    ASSERT_TRUE(closure.ok()) << w.name << ": "
                              << closure.status().ToString();

    api::OptimizeOptions ranked_opts;
    ranked_opts.use_plan_cache = false;
    StatusOr<api::OptimizedProgram> ranked =
        api::OptimizeFlow(w.flow, sca, ranked_opts);
    ASSERT_TRUE(ranked.ok()) << w.name << ": " << ranked.status().ToString();

    EXPECT_DOUBLE_EQ(closure->best().cost, ranked->best().cost)
        << w.name << ": ranked top-1 missed the closure best cost";
    EXPECT_EQ(reorder::CanonicalString(closure->best().logical),
              reorder::CanonicalString(ranked->best().logical))
        << w.name << ": ranked top-1 picked a different logical plan";
    EXPECT_LE(ranked->plans_enumerated(), closure->plans_enumerated())
        << w.name << ": ranked search costed more plans than the closure";
  }
}

TEST(PlanEquivalence, TpchQ7ClosureIsByteIdenticalAndCoversCombiner) {
  workloads::TpchScale scale;
  // Enough lineitems that γ's input comfortably exceeds nations²·dop, so
  // combiner plans actually win their slot in the costed closure; few
  // nations so the NATION3/NATION7 pair filter keeps a non-trivial output.
  scale.lineitems = 8000;
  scale.orders = 800;
  scale.customers = 120;
  scale.suppliers = 20;
  scale.nations = 8;
  workloads::Workload w = workloads::MakeTpchQ7(scale);
  api::ScaProvider sca;
  std::string reference;
  ModeMatrix m = RunAllModes(w, sca, &reference);
  if (::testing::Test::HasFailure()) return;
  // The widened plan space must actually exercise the combiner.
  EXPECT_GT(m.serial_fused.combiner_plans, 0)
      << "no enumerated Q7 alternative chose a combiner plan";
  EXPECT_EQ(m.serial_fused.combiner_plans, m.parallel_fused.combiner_plans);
  EXPECT_EQ(m.serial_fused.combiner_plans, m.serial_unfused.combiner_plans);
}

TEST(PlanEquivalence, TextMiningClosureIsByteIdentical) {
  workloads::TextMiningScale scale;
  scale.documents = 800;
  workloads::Workload w = workloads::MakeTextMining(scale);
  api::ScaProvider sca;
  std::string reference;
  // The Map-chain-dominated workload carries the specialization bar: every
  // ranked alternative must run >= 2x fewer interp instructions specialized.
  ModeMatrix m = RunAllModes(w, sca, &reference, /*min_instr_ratio=*/2.0);
  if (::testing::Test::HasFailure()) return;
  EXPECT_GT(m.serial_fused.alternatives, 1u);
}

TEST(PlanEquivalence, ClickstreamClosureIsByteIdenticalAndCoversMergeJoin) {
  workloads::ClickstreamScale scale;
  scale.sessions = 600;
  scale.users = 80;
  workloads::Workload w = workloads::MakeClickstream(scale);
  // Manual annotations: SCA must treat the computed-index UDF conservatively,
  // which shrinks the clickstream plan space to the original plan only.
  api::ManualProvider manual;
  std::string reference;
  ModeMatrix m = RunAllModes(w, manual, &reference);
  if (::testing::Test::HasFailure()) return;
  // The widened plan space must actually exercise the sort-merge join.
  EXPECT_GT(m.serial_fused.merge_join_plans, 0)
      << "no enumerated clickstream alternative chose a sort-merge-join plan";
  EXPECT_EQ(m.serial_fused.merge_join_plans,
            m.parallel_fused.merge_join_plans);
}

}  // namespace
}  // namespace blackbox
