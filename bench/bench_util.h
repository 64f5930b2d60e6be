// Shared harness for the figure benchmarks: optimize a workload through the
// api layer, pick plans at regular rank intervals (the paper's methodology
// for Figures 5-7), execute each against the generated data, and print
// normalized cost estimates next to normalized measured runtimes.

#ifndef BLACKBOX_BENCH_BENCH_UTIL_H_
#define BLACKBOX_BENCH_BENCH_UTIL_H_

#include <string>
#include <vector>

#include "api/optimized_program.h"
#include "workloads/workload.h"

namespace blackbox {
namespace bench {

struct RankedRun {
  int rank = 0;
  double est_cost = 0;
  double norm_cost = 0;     // cost / min cost
  double runtime_seconds = 0;  // simulated execution runtime (machine model)
  double norm_runtime = 0;     // runtime / min runtime
  engine::ExecStats stats;
};

struct FigureResult {
  api::OptimizedProgram program;
  std::vector<RankedRun> runs;
  size_t output_rows = 0;
};

/// Shared knobs for one figure run. The cost-model parameters (dop, memory
/// budget) follow the execution options (OptimizeFlow copies them), so
/// estimates and measured runs describe the same simulated cluster.
struct BenchConfig {
  /// Annotation source; null means static code analysis.
  const api::AnnotationProvider* provider = nullptr;
  int picks = 10;  // plans sampled at regular rank intervals
  int reps = 3;    // repetitions per plan (the fastest run is reported)
  /// Execution options; results are invariant under exec.num_threads (the
  /// determinism contract), which only moves real wall time.
  engine::ExecOptions exec;

  BenchConfig() {
    exec.dop = 8;
    exec.mem_budget_bytes = 1 << 20;
  }
};

/// How often the new physical strategies appear in a ranked plan list — the
/// ablation-visible contribution of sort-order tracking and combiner
/// insertion, recorded in every BENCH_*.json.
struct StrategyMix {
  int sort_merge_plans = 0;  // ranked plans containing a sort-merge join
  int combiner_plans = 0;    // ranked plans containing a combiner
  bool best_uses_sort_merge = false;
  bool best_uses_combiner = false;
};

StrategyMix CountStrategyMix(const api::OptimizedProgram& program);

/// Optimizes `w`, picks plans in regular rank intervals (always including
/// rank 1 and the last rank), executes them, and returns the series.
StatusOr<FigureResult> RunRankedFigure(const workloads::Workload& w,
                                       const BenchConfig& config);

/// Prints the paper-style two-row series for a figure.
void PrintFigure(const std::string& title, const FigureResult& result);

/// 1-based rank of the originally implemented data flow, -1 if absent.
int ImplementedRank(const api::OptimizedProgram& program);

/// One point of a memory-budget sweep: the best-ranked plan re-executed
/// under a different per-instance budget (DESIGN.md §2.3). disk_bytes is
/// the measured spill traffic, peak_bytes the per-instance high-water mark
/// — both deterministic, so the bench baseline pins them against drift.
struct BudgetSweepPoint {
  double budget_bytes = 0;
  double simulated_seconds = 0;
  long long disk_bytes = 0;
  long long peak_bytes = 0;
  // Data skipping (DESIGN.md §2.5): refuted batches and elided spill-run
  // re-reads. disk_bytes + skipped_spill_bytes is invariant under the
  // skipping switch, so the baseline pins both.
  long long skipped_batches = 0;
  long long skipped_spill_bytes = 0;
};

/// Runs the best-ranked plan of `fig` once per budget (restoring the
/// original execution options afterwards).
StatusOr<std::vector<BudgetSweepPoint>> RunBudgetSweep(
    FigureResult* fig, const std::vector<double>& budgets);

/// The default sweep the figure drivers record: effectively unbounded, then
/// squeezing the per-instance budget to 256 KB, 32 KB, and finally 8 KB —
/// the point at which even the best-ranked plan must spill.
std::vector<double> DefaultBudgetSweep();

/// Writes machine-readable results to BENCH_<name>.json in the working
/// directory: plan counts, estimated vs simulated seconds per picked rank,
/// the byte and call meters, and the memory-budget sweep when `sweep` is
/// non-null. Every field is deterministic; wall-clock claims come from
/// perfbench (perfbench/README.md), not from one run here.
Status WriteBenchJson(const std::string& name, const FigureResult& result,
                      const std::vector<BudgetSweepPoint>* sweep = nullptr);

/// The figure drivers' shared tail: runs the default budget sweep of the
/// best plan, prints it, and writes BENCH_<base>[_budget<N>].json — the
/// suffix (when `mem_budget_flag` > 0, the driver's --mem-budget value)
/// keeps CI's spill-smoke JSON next to the default one.
Status WriteFigureJsonWithSweep(const std::string& base_name,
                                long long mem_budget_flag, FigureResult* fig);

}  // namespace bench
}  // namespace blackbox

#endif  // BLACKBOX_BENCH_BENCH_UTIL_H_
