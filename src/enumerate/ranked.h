// Ranked, anytime plan enumeration (DESIGN.md §3.4) — the optimizer's one
// plan search. RankedEnumerate walks the reorder closure's rewrite graph
// best-first: a frontier of discovered-but-uncosted logical plans ordered by
// an admissible lower bound (optimizer::LowerBoundCost), popping the most
// promising plan, costing it fully, and expanding its rewrite neighbors.
// The search stops as soon as no frontier plan's bound can still displace the
// current top-k (within cost_epsilon) — the anytime guarantee of "Ranked
// Enumeration of Join Queries with Projections" (PAPERS.md) adapted to the
// paper's reorder closure. With an unbounded top_k the stop rule never fires
// and the search costs exactly the closure. Equal-cost plans rank by (fewer
// operator chains, canonical form): fewer chains = fewer pipeline breakers.

#ifndef BLACKBOX_ENUMERATE_RANKED_H_
#define BLACKBOX_ENUMERATE_RANKED_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"
#include "enumerate/enumerate.h"
#include "optimizer/physical.h"
#include "reorder/plan.h"

namespace blackbox {
namespace enumerate {

struct RankedOptions {
  /// Ranked alternatives to return. The search keeps costing while any
  /// frontier bound could still enter (or tie into) the top-k; a top_k at
  /// least the closure size (core::kAllPlans) costs every discovered plan.
  size_t top_k = 8;

  /// Anytime slack: stop once every frontier bound exceeds the current k-th
  /// best cost by more than this (absolute cost units). 0 = exact over the
  /// discovered space, including cost ties.
  double cost_epsilon = 0;

  /// Safety valve on DISCOVERED plans (frontier inserts), mirroring
  /// EnumOptions::max_plans. Hitting it marks the result truncated. The
  /// search keeps the first max_plans plans it discovers best-first — the
  /// authored plan is always the first — and still costs them under the
  /// stop rule; plans discovered later are dropped. This is a different
  /// subset than EnumerateAlternatives' BFS keeps at the same cap.
  size_t max_plans = 1'000'000;
};

/// One fully costed alternative, in final rank order.
struct RankedAlternative {
  reorder::PlanPtr logical;
  optimizer::PhysicalPlan physical;
  std::string canonical;  // reorder::CanonicalString(logical)
};

struct RankedResult {
  /// Ascending (cost, num_chains, canonical); at most top_k entries.
  std::vector<RankedAlternative> ranked;

  size_t plans_enumerated = 0;  // popped from the frontier and fully costed
  size_t plans_pruned = 0;      // discovered but never costed (bound too high)
  size_t rewrites_applied = 0;
  size_t rewrites_rejected = 0;
  bool stopped_early = false;  // the bound fired before frontier exhaustion
  bool truncated = false;      // max_plans hit while discovering

  /// Wall seconds inside optimizer::OptimizePhysical vs everything else
  /// (neighbor generation, bounds, frontier bookkeeping).
  double costing_seconds = 0;
  double search_seconds = 0;
};

/// Best-first top-k search over the rewrite graph of `af`'s flow. The search
/// is serial and deterministic: frontier order is (lower bound, canonical
/// form) and the final ranking's tie-break is (num_chains, canonical form).
/// Exactness contract: every DISCOVERED plan whose bound is <= the k-th best
/// cost + cost_epsilon is costed before the search stops, so the returned
/// top-1 matches the full closure's best whenever the bound steers discovery
/// to it — validated empirically by the differentials against the
/// independent BFS closure (tests/enum_random_chain_test.cc,
/// tests/plan_equivalence_test.cc).
StatusOr<RankedResult> RankedEnumerate(const dataflow::AnnotatedFlow& af,
                                       const optimizer::CostWeights& weights,
                                       const RankedOptions& options = {});

}  // namespace enumerate
}  // namespace blackbox

#endif  // BLACKBOX_ENUMERATE_RANKED_H_
