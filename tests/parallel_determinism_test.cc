// Determinism contract of the partition-parallel engine (DESIGN.md §2.1): for
// any ExecOptions::num_threads, running a plan must produce byte-identical
// sink output and identical ExecStats meters (every field except
// wall_seconds) — the thread count may only change how fast the answer
// arrives, never the answer. The plans come from a full-closure optimize
// (the serial ranked search never reads the thread count; its list is
// compared too), and the closure's best and worst plans are run. Exercised
// on TPC-H Q7 (bushy join tree) and the clickstream task, plus a spill-path
// variant that forces the memory budget below the working set.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/optimized_program.h"
#include "reorder/plan.h"
#include "workloads/clickstream.h"
#include "workloads/tpch.h"

namespace blackbox {
namespace {

struct RunOutcome {
  std::vector<double> ranked_costs;
  std::vector<std::string> ranked_plans;  // canonical forms, rank order
  DataSet best_output;
  DataSet worst_output;
  engine::ExecStats best_stats;
  engine::ExecStats worst_stats;
};

RunOutcome OptimizeAndRun(const workloads::Workload& w, int num_threads,
                          double mem_budget_bytes) {
  api::ScaProvider provider;
  api::OptimizeOptions options;
  options.exec.num_threads = num_threads;
  options.exec.mem_budget_bytes = mem_budget_bytes;
  // The whole closure, so the worst-ranked plan run below is the closure's
  // worst; and each call an independent optimization rather than a
  // plan-cache alias (thread count is deliberately not part of the cache
  // key).
  options.top_k = core::kAllPlans;
  options.use_plan_cache = false;

  api::SourceBindings sources;
  for (const auto& [id, data] : w.source_data) sources[id] = &data;

  StatusOr<api::OptimizedProgram> program =
      api::OptimizeFlow(w.flow, provider, options, sources);
  EXPECT_TRUE(program.ok()) << program.status().ToString();

  RunOutcome outcome;
  for (const core::PlannedAlternative& alt : program->ranked()) {
    outcome.ranked_costs.push_back(alt.cost);
    outcome.ranked_plans.push_back(reorder::CanonicalString(alt.logical));
  }
  StatusOr<DataSet> best = program->Run(0, &outcome.best_stats);
  EXPECT_TRUE(best.ok()) << best.status().ToString();
  outcome.best_output = std::move(best).value();
  size_t worst = program->ranked().size() - 1;
  StatusOr<DataSet> worst_out = program->Run(worst, &outcome.worst_stats);
  EXPECT_TRUE(worst_out.ok()) << worst_out.status().ToString();
  outcome.worst_output = std::move(worst_out).value();
  return outcome;
}

/// Byte-identical: same record sequence, not just bag equality — partition
/// gather order is part of the determinism contract.
void ExpectIdenticalOutput(const DataSet& a, const DataSet& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.record(i), b.record(i)) << "record " << i << ": "
                                        << a.record(i).ToString() << " vs "
                                        << b.record(i).ToString();
  }
}

/// All meters and the derived simulated time must match exactly;
/// wall_seconds is the one field allowed to vary with thread count.
void ExpectIdenticalMeters(const engine::ExecStats& a,
                           const engine::ExecStats& b) {
  EXPECT_EQ(a.network_bytes, b.network_bytes);
  EXPECT_EQ(a.disk_bytes, b.disk_bytes);
  EXPECT_EQ(a.udf_calls, b.udf_calls);
  EXPECT_EQ(a.interp_instructions, b.interp_instructions);
  EXPECT_EQ(a.cpu_burn_units, b.cpu_burn_units);
  EXPECT_EQ(a.records_processed, b.records_processed);
  EXPECT_EQ(a.output_rows, b.output_rows);
  EXPECT_EQ(a.skipped_batches, b.skipped_batches);
  EXPECT_EQ(a.skipped_spill_bytes, b.skipped_spill_bytes);
  EXPECT_EQ(a.fused_chains, b.fused_chains);
  EXPECT_EQ(a.specialized_instructions_saved,
            b.specialized_instructions_saved);
  EXPECT_EQ(a.projected_fields_skipped, b.projected_fields_skipped);
  EXPECT_EQ(a.peak_bytes, b.peak_bytes);
  EXPECT_EQ(a.simulated_seconds, b.simulated_seconds);
  ASSERT_EQ(a.per_op.size(), b.per_op.size());
  for (size_t i = 0; i < a.per_op.size(); ++i) {
    SCOPED_TRACE("per_op[" + std::to_string(i) + "]");
    EXPECT_EQ(a.per_op[i].udf_calls, b.per_op[i].udf_calls);
    EXPECT_EQ(a.per_op[i].rows_out, b.per_op[i].rows_out);
    EXPECT_EQ(a.per_op[i].interp_instructions,
              b.per_op[i].interp_instructions);
    EXPECT_EQ(a.per_op[i].cpu_burn_units, b.per_op[i].cpu_burn_units);
  }
}

void ExpectThreadCountInvariance(const workloads::Workload& w,
                                 double mem_budget_bytes) {
  RunOutcome baseline = OptimizeAndRun(w, 1, mem_budget_bytes);
  ASSERT_FALSE(baseline.ranked_costs.empty());
  for (int threads : {2, 8}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    RunOutcome parallel = OptimizeAndRun(w, threads, mem_budget_bytes);
    // Identical ranking: same costs in the same order, same plans.
    ASSERT_EQ(parallel.ranked_costs.size(), baseline.ranked_costs.size());
    for (size_t i = 0; i < baseline.ranked_costs.size(); ++i) {
      EXPECT_EQ(parallel.ranked_costs[i], baseline.ranked_costs[i])
          << "rank " << i + 1;
      EXPECT_EQ(parallel.ranked_plans[i], baseline.ranked_plans[i])
          << "rank " << i + 1;
    }
    ExpectIdenticalOutput(parallel.best_output, baseline.best_output);
    ExpectIdenticalOutput(parallel.worst_output, baseline.worst_output);
    ExpectIdenticalMeters(parallel.best_stats, baseline.best_stats);
    ExpectIdenticalMeters(parallel.worst_stats, baseline.worst_stats);
  }
}

workloads::Workload SmallQ7() {
  workloads::TpchScale scale;
  scale.lineitems = 2000;
  scale.orders = 500;
  scale.customers = 100;
  scale.suppliers = 25;
  return workloads::MakeTpchQ7(scale);
}

workloads::Workload SmallClickstream() {
  workloads::ClickstreamScale scale;
  scale.sessions = 300;
  return workloads::MakeClickstream(scale);
}

TEST(ParallelDeterminism, TpchQ7IsThreadCountInvariant) {
  ExpectThreadCountInvariance(SmallQ7(), /*mem_budget_bytes=*/16 << 20);
}

TEST(ParallelDeterminism, ClickstreamIsThreadCountInvariant) {
  ExpectThreadCountInvariance(SmallClickstream(),
                              /*mem_budget_bytes=*/16 << 20);
}

TEST(ParallelDeterminism, SpillPathIsThreadCountInvariant) {
  // A memory budget far below the working set forces real spills (external
  // sorts, spilled breaker buffers, the hash join's merge fallback) in every
  // partition task; the spilled bytes, the peak meter, and the output must
  // be identical under concurrency.
  workloads::Workload w = SmallQ7();
  RunOutcome serial = OptimizeAndRun(w, 1, /*mem_budget_bytes=*/4 << 10);
  // The cheapest plan may legitimately dodge the budget (that is the point
  // of costing spills); the worst-ranked plan cannot.
  EXPECT_GT(serial.worst_stats.disk_bytes, 0) << "budget did not force spills";
  ExpectThreadCountInvariance(w, /*mem_budget_bytes=*/4 << 10);
}

TEST(ParallelDeterminism, ForcedSpillAtEightThreadsRunsTheRealSpillPath) {
  // Since the spill-to-disk breakers landed (DESIGN.md §2.3) this exercises
  // the real external-operator path under concurrency, not just the meter:
  // at 8 worker threads the budgeted run must write+read actual spill runs,
  // keep every instance under budget (plus slack), and still produce the
  // same bag of records as an effectively unbounded run.
  workloads::Workload w = SmallQ7();
  const double budget = 4 << 10;
  RunOutcome spilled = OptimizeAndRun(w, 8, budget);
  RunOutcome unbounded = OptimizeAndRun(w, 8, /*mem_budget_bytes=*/1 << 30);
  ASSERT_FALSE(spilled.ranked_costs.empty());

  EXPECT_GT(spilled.worst_stats.disk_bytes, 0);
  EXPECT_EQ(unbounded.worst_stats.disk_bytes, 0);
  // peak respects the per-instance budget by construction; one default
  // batch (256 records) of the widest Q7 records is ample slack.
  const int64_t slack = 96 << 10;
  EXPECT_LE(spilled.worst_stats.peak_bytes,
            static_cast<int64_t>(budget) + slack);
  EXPECT_LT(spilled.worst_stats.peak_bytes, unbounded.worst_stats.peak_bytes);

  // Across budgets only the bag is invariant (a spilling hash join may
  // legally execute as an external merge join, permuting record order).
  EXPECT_TRUE(spilled.worst_output.BagEquals(unbounded.worst_output));
  EXPECT_TRUE(spilled.best_output.BagEquals(unbounded.best_output));
}

}  // namespace
}  // namespace blackbox
