#include "bench/bench_util.h"

#include <algorithm>
#include <cstdio>

namespace blackbox {
namespace bench {

namespace {

void CountNode(const optimizer::PhysicalNode& n, int* merge, int* comb) {
  if (n.local == optimizer::LocalStrategy::kSortMergeJoin) ++*merge;
  if (n.local == optimizer::LocalStrategy::kPreAggregate) ++*comb;
  for (const auto& c : n.children) CountNode(*c, merge, comb);
}

}  // namespace

StrategyMix CountStrategyMix(const api::OptimizedProgram& program) {
  StrategyMix mix;
  for (size_t i = 0; i < program.ranked().size(); ++i) {
    int merge = 0, comb = 0;
    CountNode(*program.ranked()[i].physical.root, &merge, &comb);
    if (merge > 0) ++mix.sort_merge_plans;
    if (comb > 0) ++mix.combiner_plans;
    if (i == 0) {
      mix.best_uses_sort_merge = merge > 0;
      mix.best_uses_combiner = comb > 0;
    }
  }
  return mix;
}

StatusOr<FigureResult> RunRankedFigure(const workloads::Workload& w,
                                       const BenchConfig& config) {
  api::ScaProvider sca;
  const api::AnnotationProvider& provider =
      config.provider ? *config.provider : sca;
  api::OptimizeOptions options;
  options.exec = config.exec;
  // The figures sample plans at regular rank intervals across the WHOLE
  // plan space (the paper's Figures 5-7 methodology), so they need the
  // full closure, not a ranked top-k; and they measure optimization, so
  // the plan cache must not short-circuit it.
  options.top_k = core::kAllPlans;
  options.use_plan_cache = false;

  // Bind up front so hint providers that execute the flow (ProfilerProvider)
  // work through the harness; the bindings carry into the program for Run().
  api::SourceBindings sources;
  for (const auto& [id, data] : w.source_data) sources[id] = &data;

  StatusOr<api::OptimizedProgram> program =
      api::OptimizeFlow(w.flow, provider, options, sources);
  if (!program.ok()) return program.status();

  FigureResult fig;
  fig.program = std::move(program).value();
  const size_t n = fig.program.ranked().size();

  // Regular rank intervals, always including the best and worst plan.
  std::vector<size_t> indices;
  size_t count = std::min<size_t>(config.picks, n);
  for (size_t k = 0; k < count; ++k) {
    size_t idx = count == 1 ? 0 : k * (n - 1) / (count - 1);
    if (indices.empty() || indices.back() != idx) indices.push_back(idx);
  }

  for (size_t idx : indices) {
    const core::PlannedAlternative& alt = fig.program.ranked()[idx];
    RankedRun run;
    run.rank = alt.rank;
    run.est_cost = alt.cost;
    for (int rep = 0; rep < config.reps; ++rep) {
      engine::ExecStats stats;
      StatusOr<DataSet> out = fig.program.Run(idx, &stats);
      if (!out.ok()) return out.status();
      fig.output_rows = out->size();
      if (rep == 0 || stats.simulated_seconds < run.runtime_seconds) {
        run.runtime_seconds = stats.simulated_seconds;
        run.stats = stats;
      }
    }
    fig.runs.push_back(run);
  }

  double min_cost = fig.runs.front().est_cost;
  double min_runtime = fig.runs.front().runtime_seconds;
  for (const RankedRun& r : fig.runs) {
    min_cost = std::min(min_cost, r.est_cost);
    min_runtime = std::min(min_runtime, r.runtime_seconds);
  }
  for (RankedRun& r : fig.runs) {
    r.norm_cost = min_cost > 0 ? r.est_cost / min_cost : 0;
    r.norm_runtime = min_runtime > 0 ? r.runtime_seconds / min_runtime : 0;
  }
  return fig;
}

void PrintFigure(const std::string& title, const FigureResult& result) {
  std::printf("%s\n", title.c_str());
  std::printf(
      "  alternatives enumerated: %zu (enumeration %.1f ms, costing %.1f "
      "ms)\n",
      result.program.num_alternatives(),
      result.program.enumeration_seconds() * 1e3,
      result.program.costing_seconds() * 1e3);
  StrategyMix mix = CountStrategyMix(result.program);
  std::printf(
      "  strategy mix: %d plans with sort-merge join, %d with combiner "
      "(best plan: merge=%s combiner=%s)\n",
      mix.sort_merge_plans, mix.combiner_plans,
      mix.best_uses_sort_merge ? "yes" : "no",
      mix.best_uses_combiner ? "yes" : "no");
  std::printf("  %-6s %-15s %-18s %-11s %-9s %-9s %-10s %-9s %-10s\n", "rank",
              "norm.cost.est", "norm.exec.runtime", "runtime[s]", "wall[s]",
              "net[MB]", "disk[MB]", "peak[MB]", "udf calls");
  for (const RankedRun& r : result.runs) {
    std::printf(
        "  %-6d %-15.2f %-18.2f %-11.3f %-9.3f %-9.3f %-10.3f %-9.3f %-10lld\n",
        r.rank, r.norm_cost, r.norm_runtime, r.runtime_seconds,
        r.stats.wall_seconds,
        static_cast<double>(r.stats.network_bytes) / (1 << 20),
        static_cast<double>(r.stats.disk_bytes) / (1 << 20),
        static_cast<double>(r.stats.peak_bytes) / (1 << 20),
        static_cast<long long>(r.stats.udf_calls));
  }
  std::printf("  output rows: %zu\n\n", result.output_rows);
}

int ImplementedRank(const api::OptimizedProgram& program) {
  int idx = program.ImplementedIndex();
  return idx < 0 ? -1 : program.ranked()[idx].rank;
}

Status WriteFigureJsonWithSweep(const std::string& base_name,
                                long long mem_budget_flag, FigureResult* fig) {
  StatusOr<std::vector<BudgetSweepPoint>> sweep =
      RunBudgetSweep(fig, DefaultBudgetSweep());
  if (!sweep.ok()) return sweep.status();
  std::printf("budget sweep (best plan):\n");
  for (const BudgetSweepPoint& p : *sweep) {
    std::printf(
        "  budget %10.0f B  disk %8.3f MB  peak %8.3f MB  "
        "skipped %4lld batches / %8.3f MB spill\n",
        p.budget_bytes, static_cast<double>(p.disk_bytes) / (1 << 20),
        static_cast<double>(p.peak_bytes) / (1 << 20), p.skipped_batches,
        static_cast<double>(p.skipped_spill_bytes) / (1 << 20));
  }
  std::printf("\n");
  std::string name = base_name;
  if (mem_budget_flag > 0) {
    name += "_budget" + std::to_string(mem_budget_flag);
  }
  return WriteBenchJson(name, *fig, &*sweep);
}

std::vector<double> DefaultBudgetSweep() {
  // Effectively unbounded, then tightening until even the best-ranked plan
  // (which the optimizer chose partly for its small breakers) must spill.
  return {static_cast<double>(1 << 30), static_cast<double>(256 << 10),
          static_cast<double>(32 << 10), static_cast<double>(8 << 10)};
}

StatusOr<std::vector<BudgetSweepPoint>> RunBudgetSweep(
    FigureResult* fig, const std::vector<double>& budgets) {
  engine::ExecOptions saved = fig->program.exec_options();
  std::vector<BudgetSweepPoint> points;
  for (double budget : budgets) {
    fig->program.mutable_exec_options().mem_budget_bytes = budget;
    engine::ExecStats stats;
    StatusOr<DataSet> out = fig->program.RunBest(&stats);
    if (!out.ok()) {
      fig->program.mutable_exec_options() = saved;
      return out.status();
    }
    BudgetSweepPoint p;
    p.budget_bytes = budget;
    p.simulated_seconds = stats.simulated_seconds;
    p.disk_bytes = static_cast<long long>(stats.disk_bytes);
    p.peak_bytes = static_cast<long long>(stats.peak_bytes);
    p.skipped_batches = static_cast<long long>(stats.skipped_batches);
    p.skipped_spill_bytes =
        static_cast<long long>(stats.skipped_spill_bytes);
    points.push_back(p);
  }
  fig->program.mutable_exec_options() = saved;
  return points;
}

Status WriteBenchJson(const std::string& name, const FigureResult& result,
                      const std::vector<BudgetSweepPoint>* sweep) {
  std::string path = "BENCH_" + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return Status::Internal("cannot open " + path + " for writing");
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"%s\",\n", name.c_str());
  std::fprintf(f, "  \"mem_budget_bytes\": %.0f,\n",
               result.program.exec_options().mem_budget_bytes);
  std::fprintf(f, "  \"alternatives\": %zu,\n",
               result.program.num_alternatives());
  std::fprintf(f, "  \"truncated\": %s,\n",
               result.program.truncated() ? "true" : "false");
  std::fprintf(f, "  \"implemented_rank\": %d,\n",
               ImplementedRank(result.program));
  std::fprintf(f, "  \"output_rows\": %zu,\n", result.output_rows);
  StrategyMix mix = CountStrategyMix(result.program);
  std::fprintf(f, "  \"sort_merge_plans\": %d,\n", mix.sort_merge_plans);
  std::fprintf(f, "  \"combiner_plans\": %d,\n", mix.combiner_plans);
  std::fprintf(f, "  \"best_uses_sort_merge\": %s,\n",
               mix.best_uses_sort_merge ? "true" : "false");
  std::fprintf(f, "  \"best_uses_combiner\": %s,\n",
               mix.best_uses_combiner ? "true" : "false");
  std::fprintf(f, "  \"runs\": [\n");
  for (size_t i = 0; i < result.runs.size(); ++i) {
    const RankedRun& r = result.runs[i];
    std::fprintf(f,
                 "    {\"rank\": %d, \"estimated_cost\": %.6f, "
                 "\"norm_cost\": %.4f, \"simulated_seconds\": %.6f, "
                 "\"norm_runtime\": %.4f, "
                 "\"network_bytes\": %lld, \"disk_bytes\": %lld, "
                 "\"peak_bytes\": %lld, \"udf_calls\": %lld, "
                 "\"skipped_batches\": %lld, "
                 "\"skipped_spill_bytes\": %lld, "
                 "\"fused_chains\": %lld, "
                 "\"specialized_instructions_saved\": %lld, "
                 "\"projected_fields_skipped\": %lld}%s\n",
                 r.rank, r.est_cost, r.norm_cost, r.runtime_seconds,
                 r.norm_runtime,
                 static_cast<long long>(r.stats.network_bytes),
                 static_cast<long long>(r.stats.disk_bytes),
                 static_cast<long long>(r.stats.peak_bytes),
                 static_cast<long long>(r.stats.udf_calls),
                 static_cast<long long>(r.stats.skipped_batches),
                 static_cast<long long>(r.stats.skipped_spill_bytes),
                 static_cast<long long>(r.stats.fused_chains),
                 static_cast<long long>(r.stats.specialized_instructions_saved),
                 static_cast<long long>(r.stats.projected_fields_skipped),
                 i + 1 < result.runs.size() ? "," : "");
  }
  std::fprintf(f, "  ]%s\n", sweep ? "," : "");
  if (sweep) {
    // Best plan re-executed under tightening per-instance budgets: disk and
    // peak are measured, deterministic, and pinned by the bench baseline.
    std::fprintf(f, "  \"budget_sweep\": [\n");
    for (size_t i = 0; i < sweep->size(); ++i) {
      const BudgetSweepPoint& p = (*sweep)[i];
      std::fprintf(f,
                   "    {\"mem_budget_bytes\": %.0f, \"simulated_seconds\": "
                   "%.6f, \"disk_bytes\": %lld, \"peak_bytes\": %lld, "
                   "\"skipped_batches\": %lld, "
                   "\"skipped_spill_bytes\": %lld}%s\n",
                   p.budget_bytes, p.simulated_seconds, p.disk_bytes,
                   p.peak_bytes, p.skipped_batches, p.skipped_spill_bytes,
                   i + 1 < sweep->size() ? "," : "");
    }
    std::fprintf(f, "  ]\n");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return Status::OK();
}

}  // namespace bench
}  // namespace blackbox
