// BlackBoxOptimizer — the public entry point tying the pipeline together
// (paper Section 3): annotate the flow's UDFs (static code analysis or manual
// annotations), search the valid reordered alternatives (Section 6) best-first,
// cost them with the physical optimizer (Section 7.1), and return the ranked
// plan list — the top_k best, or every alternative under top_k = kAllPlans.
//
// Typical use:
//
//   dataflow::DataFlow flow = BuildMyFlow();
//   core::BlackBoxOptimizer opt({.mode = dataflow::AnnotationMode::kSca});
//   auto result = opt.Optimize(flow);
//   // result->ranked[0] is the cheapest plan; execute it:
//   engine::Executor exec(&result->annotated);
//   exec.BindSource(src_id, &data);
//   auto out = exec.Execute(result->ranked[0].physical);

#ifndef BLACKBOX_CORE_OPTIMIZER_API_H_
#define BLACKBOX_CORE_OPTIMIZER_API_H_

#include <limits>
#include <vector>

#include "common/status.h"
#include "dataflow/annotate.h"
#include "dataflow/flow.h"
#include "enumerate/enumerate.h"
#include "enumerate/ranked.h"
#include "optimizer/physical.h"
#include "reorder/plan.h"

namespace blackbox {
namespace core {

/// `Options::top_k` that keeps every discovered plan: the anytime stop rule
/// can never fire, so the ranked search costs the whole reorder closure
/// (DESIGN.md §3.4). The oracle configuration — differential tests iterate
/// it, and the bench figures use it so "ranked list" keeps its full-closure
/// meaning there.
inline constexpr int kAllPlans = std::numeric_limits<int>::max();

/// One costed alternative.
struct PlannedAlternative {
  reorder::PlanPtr logical;
  optimizer::PhysicalPlan physical;
  double cost = 0;
  int rank = 0;  // 1-based rank by ascending estimated cost
};

struct OptimizationResult {
  dataflow::AnnotatedFlow annotated;
  std::vector<PlannedAlternative> ranked;  // ascending (cost, chains, form)
  /// Plans DISCOVERED by the search: plans_enumerated + plans_pruned (the
  /// closure size under top_k = kAllPlans).
  size_t num_alternatives = 0;
  /// Plans fully costed (== num_alternatives under top_k = kAllPlans).
  size_t plans_enumerated = 0;
  /// Plans discovered but never costed — their lower bound could not
  /// displace the top-k.
  size_t plans_pruned = 0;
  /// The anytime stop rule fired before the frontier drained. This is the
  /// expected fast path, NOT truncation: the top-k is exact over the
  /// discovered space.
  bool stopped_early = false;
  /// EnumOptions::max_plans was hit: `ranked` covers a partial closure only
  /// (the true optimum may be missing). Never silently dropped — the api
  /// layer warns when this is set.
  bool truncated = false;
  /// Wall time of the search itself (neighbor generation, bounds, frontier
  /// bookkeeping): the search's span minus the time inside physical costing.
  double enumeration_seconds = 0;
  /// Wall time spent inside physical costing.
  double costing_seconds = 0;

  /// The cheapest alternative. Optimize() guarantees at least one entry, so
  /// this can only fail on a default-constructed or hand-assembled result;
  /// aborts with a clear message instead of dereferencing an empty vector.
  const PlannedAlternative& best() const;
};

class BlackBoxOptimizer {
 public:
  struct Options {
    dataflow::AnnotationMode mode = dataflow::AnnotationMode::kSca;
    optimizer::CostWeights weights;
    enumerate::EnumOptions enum_options;

    /// Ranked alternatives to return (rejected if <= 0); kAllPlans costs
    /// and returns the whole closure.
    int top_k = 8;
    /// Anytime slack in absolute cost units (rejected if negative). 0 keeps
    /// the top-k exact over the discovered space, cost ties included.
    double cost_epsilon = 0;
  };

  BlackBoxOptimizer() : options_(Options()) {}
  explicit BlackBoxOptimizer(Options options) : options_(options) {}

  /// Full pipeline: annotate -> enumerate -> cost -> rank. Returns an error
  /// if zero alternatives survive enumeration (e.g. EnumOptions prunes
  /// everything), so a returned result always has a best() plan.
  StatusOr<OptimizationResult> Optimize(const dataflow::DataFlow& flow) const;

  /// Enumerate -> cost -> rank on an already-annotated flow. This is the
  /// lowering entry point the api layer uses after an AnnotationProvider has
  /// produced the annotation; the result takes ownership of `annotated`.
  StatusOr<OptimizationResult> OptimizeAnnotated(
      dataflow::AnnotatedFlow annotated) const;

  const Options& options() const { return options_; }

 private:
  Options options_;
};

}  // namespace core
}  // namespace blackbox

#endif  // BLACKBOX_CORE_OPTIMIZER_API_H_
