// OptimizedProgram — layer 3 of the fluent pipeline API (see DESIGN.md §4):
// the runnable result of Pipeline::Optimize(). Owns a snapshot of the logical
// flow, its annotation, and every ranked reordered alternative, and executes
// any of them on the simulated cluster — replacing the manual
// BlackBoxOptimizer + Executor + raw-operator-id dance of the core layer.

#ifndef BLACKBOX_API_OPTIMIZED_PROGRAM_H_
#define BLACKBOX_API_OPTIMIZED_PROGRAM_H_

#include <map>
#include <memory>
#include <vector>

#include "api/annotation_provider.h"
#include "common/status.h"
#include "core/optimizer_api.h"
#include "engine/executor.h"
#include "enumerate/enumerate.h"
#include "optimizer/physical.h"
#include "record/record.h"

namespace blackbox {
namespace api {

class Stream;

/// Knobs for one optimization. The execution options describe the simulated
/// cluster Run() executes on; by default the cost model is derived from them
/// so estimates and measured runtimes describe the same machine.
struct OptimizeOptions {
  optimizer::CostWeights weights;
  enumerate::EnumOptions enum_options;
  engine::ExecOptions exec;

  /// Ranked alternatives to keep (DESIGN.md §3.4). The search costs plans
  /// best-first under an admissible bound and stops as soon as the top_k
  /// cannot change; core::kAllPlans costs and keeps the whole closure (the
  /// oracle differential tests iterate it). OptimizeFlow() rejects
  /// top_k <= 0 with InvalidArgument.
  int top_k = 8;
  /// Anytime slack (absolute cost units) for the ranked stop rule; 0 keeps
  /// the top-k exact over the discovered space. Negative values are
  /// rejected with InvalidArgument.
  double cost_epsilon = 0;

  /// Consult the process-wide plan cache (optimizer/plan_cache.h): a
  /// pipeline whose canonical shape, annotations, and optimizer knobs match
  /// a previous optimization reuses its ranked plans outright — no UDF
  /// analysis, no enumeration, no costing. Automatically bypassed for
  /// providers whose annotations depend on bound data (the profiler).
  /// Disable for benchmarks that measure optimization itself.
  bool use_plan_cache = true;
};

/// An optimized, runnable program: the annotated flow plus all ranked
/// alternatives. Self-contained — it keeps the flow snapshot alive, so it may
/// outlive the Pipeline (or DataFlow) it was optimized from.
class OptimizedProgram {
 public:
  OptimizedProgram() = default;

  const dataflow::DataFlow& flow() const { return *flow_; }
  const dataflow::AnnotatedFlow& annotated() const { return res().annotated; }

  /// The ranked alternatives, ascending (cost, chain count, canonical form):
  /// the top_k best, or every alternative under top_k = core::kAllPlans.
  const std::vector<core::PlannedAlternative>& ranked() const {
    return res().ranked;
  }
  /// Plans discovered by the search (the closure size under kAllPlans).
  size_t num_alternatives() const { return res().num_alternatives; }
  /// Plans fully costed (== num_alternatives under kAllPlans).
  size_t plans_enumerated() const { return res().plans_enumerated; }
  /// Plans discovered but pruned by the lower bound.
  size_t plans_pruned() const { return res().plans_pruned; }
  /// The anytime stop rule fired — the fast path, not an error (the top-k
  /// is exact over the discovered space).
  bool stopped_early() const { return res().stopped_early; }
  /// True if enumeration hit EnumOptions::max_plans: ranked() covers only a
  /// partial closure and the true optimum may be missing. OptimizeFlow()
  /// also prints a warning to stderr when this happens.
  bool truncated() const { return res().truncated; }
  /// True if this program's plans came from the process-wide plan cache
  /// (annotation, enumeration, and costing were all skipped).
  bool from_plan_cache() const { return from_plan_cache_; }
  double enumeration_seconds() const { return res().enumeration_seconds; }
  double costing_seconds() const { return res().costing_seconds; }
  const core::PlannedAlternative& best() const { return res().best(); }

  /// Optimizer estimate of the peak per-instance buffered bytes of the
  /// alternative at `index`: the sum over its pipeline breakers of the
  /// input volume each one materializes (a broadcast side counts in full,
  /// a partitioned side divided by dop; dop <= 0 uses exec_options().dop).
  /// The serving layer sizes its admission carve from this instead of the
  /// worst-case configured budget. Returns 0 for an out-of-range index or
  /// an unoptimized program.
  double EstimatedPeakBytes(size_t index = 0, int dop = 0) const;

  /// Position of the originally authored operator order in ranked()
  /// (0-based), or -1 if it was pruned.
  int ImplementedIndex() const;

  /// Binds the data of one source, addressed by its Stream handle. Only
  /// valid on programs produced by Pipeline::Optimize(), and only with
  /// handles of that pipeline (handles from another pipeline could alias a
  /// source id here); programs from OptimizeFlow() bind via BindSources().
  Status BindSource(const Stream& source, const DataSet* data);

  /// Bulk binding for workloads that keep generated data per source operator
  /// id (the legacy bridge). The map must outlive this program.
  Status BindSources(const std::map<int, DataSet>& data);

  /// Executes the alternative at `index` in ranked order (0 = cheapest).
  /// All sources must be bound.
  StatusOr<DataSet> Run(size_t index = 0,
                        engine::ExecStats* stats = nullptr) const;
  StatusOr<DataSet> RunBest(engine::ExecStats* stats = nullptr) const {
    return Run(0, stats);
  }

  /// Like Run(), but with caller-supplied execution options instead of the
  /// stored ones. Const and reentrant: concurrent RunWith calls on one
  /// program are safe (each builds its own Executor), which is how the
  /// serving layer runs many admitted queries of the same program at once —
  /// each with its own spill tag, ledger parent, and shared worker pool.
  ///
  /// Cancellation: when exec.cancel is set, the engine polls it at batch
  /// boundaries, spill writes/reads, and merge passes; a fired token makes
  /// this return Status::Cancelled or DeadlineExceeded within about one
  /// batch of work, with all execution-owned memory and spill files already
  /// released by the unwind (RAII). The token is execution-only state — it
  /// never affects plan choice or the plan cache, and a token that never
  /// fires leaves the output byte-identical to running without one.
  StatusOr<DataSet> RunWith(size_t index, const engine::ExecOptions& exec,
                            engine::ExecStats* stats = nullptr) const;

  const engine::ExecOptions& exec_options() const { return exec_; }

  /// Mutable run options: lets a program optimized once be executed under
  /// different cluster conditions — most usefully a memory-budget sweep
  /// (exec_options().mem_budget_bytes) across Run() calls, the knob the
  /// spill-equivalence harness and the bench budget sweeps turn. Note the
  /// ranked plans keep the costs they were optimized with; changing the
  /// budget here changes measured behavior only.
  engine::ExecOptions& mutable_exec_options() { return exec_; }

 private:
  friend class Pipeline;
  friend StatusOr<OptimizedProgram> OptimizeFlow(const dataflow::DataFlow&,
                                                 const AnnotationProvider&,
                                                 const OptimizeOptions&,
                                                 const SourceBindings&);

  /// Unoptimized-program fallback for the accessors (never mutated).
  const core::OptimizationResult& res() const;

  std::shared_ptr<const dataflow::DataFlow> flow_;  // == annotated().owner
  /// Shared, immutable: a plan-cache hit aliases the cold optimization's
  /// result rather than copying plan trees, and concurrent RunWith() calls
  /// on programs sharing one result are safe (Executor takes it const).
  std::shared_ptr<const core::OptimizationResult> result_;
  bool from_plan_cache_ = false;
  SourceBindings sources_;
  engine::ExecOptions exec_;

  /// Identity of the Pipeline this program was optimized from (never
  /// dereferenced — only compared against Stream provenance in BindSource);
  /// null for programs built from a raw DataFlow.
  const void* origin_pipeline_ = nullptr;
};

/// Optimizes a pre-built logical flow: annotate via `provider`, enumerate all
/// valid reorderings, cost and rank them. This is the bridge the workload /
/// bench layers use for flows not built through a Pipeline; Pipeline::
/// Optimize() lowers to it.
StatusOr<OptimizedProgram> OptimizeFlow(const dataflow::DataFlow& flow,
                                        const AnnotationProvider& provider,
                                        const OptimizeOptions& options = {},
                                        const SourceBindings& sources = {});

}  // namespace api
}  // namespace blackbox

#endif  // BLACKBOX_API_OPTIMIZED_PROGRAM_H_
