// Figure 5: normalized cost estimates and execution runtimes for 10 plans
// picked in regular rank intervals from the TPC-H Q7 plan space. The paper
// reports 2518 alternatives and a ~7x worst/best runtime gap, with cost
// estimates tracking runtimes; this harness regenerates the same series on
// the simulated cluster (absolute counts differ — see EXPERIMENTS.md).
//
// Also prints Figure 2 (implemented vs 1st-ranked flow) and writes the whole
// series to BENCH_fig5_tpch_q7.json for the CI perf trajectory. Wall-clock
// numbers, at 1 and N threads, come from perfbench (perfbench/README.md).
//
// Flags: --smoke         reduced scale + fewer picks (the CI smoke config).
//        --no-chain      disable fused operator chains (materialize-
//                        everything execution; byte meters identical,
//                        peak_bytes higher — and under a tight budget, more
//                        spilling).
//        --mem-budget N  per-instance memory budget in bytes; breakers
//                        exceeding it spill for real (DESIGN.md §2.3). The
//                        JSON name gains a _budgetN suffix so CI's
//                        spill-smoke run sits next to the default one.

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench/bench_util.h"
#include "reorder/plan.h"
#include "workloads/tpch.h"

int main(int argc, char** argv) {
  using namespace blackbox;

  bool smoke = false;
  bool no_chain = false;
  long long mem_budget = 0;  // 0: keep the BenchConfig default
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--no-chain") == 0) no_chain = true;
    if (std::strcmp(argv[i], "--mem-budget") == 0 && i + 1 < argc) {
      mem_budget = std::atoll(argv[++i]);
    }
  }

  // Smoke keeps the full data scale and economizes on picks/reps instead:
  // the spill-smoke acceptance point (32 KiB per instance) needs the l⋈o
  // build side genuinely over budget so run-level data skipping has spilled
  // runs to refute — a scaled-down orders table never spills there and the
  // skipping meters would pin zeros.
  workloads::TpchScale scale;
  scale.lineitems = 60000;
  scale.orders = 15000;
  scale.customers = 1500;
  scale.suppliers = 100;
  workloads::Workload w = workloads::MakeTpchQ7(scale);

  bench::BenchConfig config;
  config.picks = smoke ? 5 : 10;
  config.reps = smoke ? 1 : 2;
  config.exec.fuse_chains = !no_chain;
  if (mem_budget > 0) {
    config.exec.mem_budget_bytes = static_cast<double>(mem_budget);
  }
  StatusOr<bench::FigureResult> fig = bench::RunRankedFigure(w, config);
  if (!fig.ok()) {
    std::fprintf(stderr, "error: %s\n", fig.status().ToString().c_str());
    return 1;
  }
  bench::PrintFigure(
      std::string("Figure 5 — TPC-H Q7: normalized cost estimate vs. "
                  "execution runtime (rank-picked plans") +
          (smoke ? ", smoke scale)" : ")"),
      *fig);

  // Memory-budget sweep of the best plan: measured disk/peak per budget,
  // pinned by tools/bench_baseline.py against silent drift.
  Status json =
      bench::WriteFigureJsonWithSweep("fig5_tpch_q7", mem_budget, &*fig);
  if (!json.ok()) {
    std::fprintf(stderr, "error: %s\n", json.ToString().c_str());
    return 1;
  }

  int implemented = bench::ImplementedRank(fig->program);
  std::printf("Figure 2(a) — implemented data flow (rank %d):\n%s\n",
              implemented,
              reorder::PlanToString(reorder::PlanFromFlow(w.flow), w.flow)
                  .c_str());
  std::printf("Figure 2(b) — 1st-ranked data flow:\n%s\n",
              reorder::PlanToString(fig->program.ranked()[0].logical,
                                    w.flow)
                  .c_str());
  std::printf("1st-ranked physical plan:\n%s\n",
              fig->program.ranked()[0].physical.ToString(w.flow).c_str());
  return 0;
}
