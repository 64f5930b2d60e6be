// §7.3 "Enumeration Time": plan enumeration took < 1654 ms for every
// evaluation task with the naive (enumerate-all-then-cost) implementation.
// This driver measures the full closure (the ranked search with top_k =
// core::kAllPlans, which costs every plan like the naive pipeline) against
// the default top-k anytime search (DESIGN.md §3.4) on the three seed
// workloads and writes BENCH_enum_time.json: per-workload closure vs ranked
// optimize wall, search counters (plans enumerated / pruned /
// stopped_early), and whether the ranked top-1 reaches the closure's best
// cost.
//
// Flags: --top-k N      ranked alternatives to keep (default 8)
//        --cache-warm   also measure plan-cache cold vs warm optimize wall
//        --reps N       wall-clock repetitions, best kept (default 5)

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "api/annotation_provider.h"
#include "api/optimized_program.h"
#include "optimizer/plan_cache.h"
#include "workloads/clickstream.h"
#include "workloads/textmining.h"
#include "workloads/tpch.h"
#include "workloads/workload.h"

namespace {

using namespace blackbox;

struct ModeResult {
  api::OptimizedProgram program;
  double wall_seconds = 0;  // best of reps
};

struct WorkloadResult {
  std::string name;
  ModeResult closure;
  ModeResult ranked;
  bool best_cost_equal = false;
  double speedup = 0;  // closure wall / ranked wall
  // --cache-warm only:
  bool cache_measured = false;
  double cache_cold_wall = 0;
  double cache_warm_wall = 0;
  bool cache_warm_hit = false;
};

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One optimize under `options`, repeated `reps` times; keeps the fastest
/// wall and the last program.
StatusOr<ModeResult> Measure(const workloads::Workload& w,
                             const api::OptimizeOptions& options, int reps) {
  ModeResult out;
  for (int r = 0; r < reps; ++r) {
    double t0 = Now();
    StatusOr<api::OptimizedProgram> program =
        api::OptimizeFlow(w.flow, api::ScaProvider(), options);
    if (!program.ok()) return program.status();
    double wall = Now() - t0;
    if (r == 0 || wall < out.wall_seconds) out.wall_seconds = wall;
    out.program = std::move(program).value();
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  int top_k = 8;
  int reps = 5;
  bool cache_warm = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--top-k") == 0 && i + 1 < argc) {
      top_k = std::atoi(argv[++i]);
    }
    if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    }
    if (std::strcmp(argv[i], "--cache-warm") == 0) cache_warm = true;
  }

  workloads::TpchScale tpch;
  tpch.lineitems = 1000;
  tpch.orders = 200;
  tpch.customers = 50;
  tpch.suppliers = 20;
  workloads::ClickstreamScale click;
  click.sessions = 100;
  workloads::TextMiningScale mining;
  mining.documents = 100;

  std::vector<workloads::Workload> tasks;
  tasks.push_back(workloads::MakeClickstream(click));
  tasks.push_back(workloads::MakeTpchQ7(tpch));
  tasks.push_back(workloads::MakeTextMining(mining));
  const char* names[] = {"clickstream", "tpch_q7", "textmining"};

  std::vector<WorkloadResult> results;
  for (size_t i = 0; i < tasks.size(); ++i) {
    WorkloadResult wr;
    wr.name = names[i];

    api::OptimizeOptions closure_opts;
    closure_opts.top_k = core::kAllPlans;
    closure_opts.use_plan_cache = false;
    StatusOr<ModeResult> closure = Measure(tasks[i], closure_opts, reps);
    if (!closure.ok()) {
      std::fprintf(stderr, "closure optimize %s: %s\n", wr.name.c_str(),
                   closure.status().ToString().c_str());
      return 1;
    }
    wr.closure = std::move(closure).value();

    api::OptimizeOptions ranked_opts;
    ranked_opts.top_k = top_k;
    ranked_opts.use_plan_cache = false;
    StatusOr<ModeResult> ranked = Measure(tasks[i], ranked_opts, reps);
    if (!ranked.ok()) {
      std::fprintf(stderr, "ranked optimize %s: %s\n", wr.name.c_str(),
                   ranked.status().ToString().c_str());
      return 1;
    }
    wr.ranked = std::move(ranked).value();

    double cb = wr.closure.program.best().cost;
    double rb = wr.ranked.program.best().cost;
    wr.best_cost_equal =
        std::fabs(cb - rb) <= 1e-9 * std::max(1.0, std::fabs(cb));
    wr.speedup = wr.ranked.wall_seconds > 0
                     ? wr.closure.wall_seconds / wr.ranked.wall_seconds
                     : 0;

    if (cache_warm) {
      // Cold: empty cache, full optimize + insert. Warm: same key, the
      // whole pipeline (annotate + search + cost) is skipped.
      optimizer::PlanCache::Global().Clear();
      api::OptimizeOptions cache_opts = ranked_opts;
      cache_opts.use_plan_cache = true;
      double t0 = Now();
      StatusOr<api::OptimizedProgram> cold =
          api::OptimizeFlow(tasks[i].flow, api::ScaProvider(), cache_opts);
      double cold_wall = Now() - t0;
      if (!cold.ok()) {
        std::fprintf(stderr, "cold optimize %s: %s\n", wr.name.c_str(),
                     cold.status().ToString().c_str());
        return 1;
      }
      t0 = Now();
      StatusOr<api::OptimizedProgram> warm =
          api::OptimizeFlow(tasks[i].flow, api::ScaProvider(), cache_opts);
      double warm_wall = Now() - t0;
      if (!warm.ok()) {
        std::fprintf(stderr, "warm optimize %s: %s\n", wr.name.c_str(),
                     warm.status().ToString().c_str());
        return 1;
      }
      wr.cache_measured = true;
      wr.cache_cold_wall = cold_wall;
      wr.cache_warm_wall = warm_wall;
      wr.cache_warm_hit = warm->from_plan_cache();
    }

    std::printf(
        "%-12s closure %4zu plans %8.3f ms | ranked(k=%d) costed %zu "
        "pruned %zu%s %8.3f ms | speedup %5.1fx best_cost_equal=%s\n",
        wr.name.c_str(), wr.closure.program.plans_enumerated(),
        wr.closure.wall_seconds * 1e3, top_k,
        wr.ranked.program.plans_enumerated(),
        wr.ranked.program.plans_pruned(),
        wr.ranked.program.stopped_early() ? " early-stop" : "",
        wr.ranked.wall_seconds * 1e3, wr.speedup,
        wr.best_cost_equal ? "true" : "false");
    if (wr.cache_measured) {
      std::printf(
          "%-12s cache cold %8.3f ms warm %8.3f ms hit=%s\n", wr.name.c_str(),
          wr.cache_cold_wall * 1e3, wr.cache_warm_wall * 1e3,
          wr.cache_warm_hit ? "true" : "false");
    }
    results.push_back(std::move(wr));
  }

  bool ok = true;
  for (const WorkloadResult& wr : results) {
    if (!wr.best_cost_equal) ok = false;
    if (wr.cache_measured && !wr.cache_warm_hit) ok = false;
  }

  std::FILE* f = std::fopen("BENCH_enum_time.json", "w");
  if (!f) {
    std::fprintf(stderr, "cannot write BENCH_enum_time.json\n");
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"enum_time\",\n");
  std::fprintf(f, "  \"top_k\": %d,\n", top_k);
  std::fprintf(f, "  \"reps\": %d,\n", reps);
  std::fprintf(f, "  \"cache_warm\": %s,\n", cache_warm ? "true" : "false");
  std::fprintf(f, "  \"workloads\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const WorkloadResult& wr = results[i];
    std::fprintf(f, "    {\"workload\": \"%s\",\n", wr.name.c_str());
    std::fprintf(f,
                 "     \"closure\": {\"alternatives\": %zu, "
                 "\"plans_enumerated\": %zu, \"optimize_wall_seconds\": %.6f, "
                 "\"enumeration_seconds\": %.6f, \"costing_seconds\": %.6f, "
                 "\"best_cost\": %.6f},\n",
                 wr.closure.program.num_alternatives(),
                 wr.closure.program.plans_enumerated(),
                 wr.closure.wall_seconds,
                 wr.closure.program.enumeration_seconds(),
                 wr.closure.program.costing_seconds(),
                 wr.closure.program.best().cost);
    std::fprintf(f,
                 "     \"ranked\": {\"alternatives\": %zu, "
                 "\"plans_enumerated\": %zu, \"plans_pruned\": %zu, "
                 "\"stopped_early\": %s, \"optimize_wall_seconds\": %.6f, "
                 "\"best_cost\": %.6f},\n",
                 wr.ranked.program.num_alternatives(),
                 wr.ranked.program.plans_enumerated(),
                 wr.ranked.program.plans_pruned(),
                 wr.ranked.program.stopped_early() ? "true" : "false",
                 wr.ranked.wall_seconds, wr.ranked.program.best().cost);
    std::fprintf(f, "     \"best_cost_equal\": %s,\n",
                 wr.best_cost_equal ? "true" : "false");
    std::fprintf(f, "     \"ranked_speedup\": %.3f%s\n", wr.speedup,
                 wr.cache_measured ? "," : "");
    if (wr.cache_measured) {
      std::fprintf(f,
                   "     \"cache\": {\"cold_wall_seconds\": %.6f, "
                   "\"warm_wall_seconds\": %.6f, \"warm_hit\": %s, "
                   "\"speedup\": %.3f}\n",
                   wr.cache_cold_wall, wr.cache_warm_wall,
                   wr.cache_warm_hit ? "true" : "false",
                   wr.cache_warm_wall > 0
                       ? wr.cache_cold_wall / wr.cache_warm_wall
                       : 0);
    }
    std::fprintf(f, "    }%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"ok\": %s\n", ok ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);

  if (!ok) {
    std::fprintf(stderr,
                 "enum_time FAILED: ranked top-1 missed the closure best "
                 "cost, or a warm cache lookup missed\n");
    return 1;
  }
  std::printf("enum_time OK — wrote BENCH_enum_time.json\n");
  return 0;
}
