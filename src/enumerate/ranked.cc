#include "enumerate/ranked.h"

#include <algorithm>
#include <chrono>
#include <queue>
#include <unordered_set>
#include <utility>

#include "reorder/conditions.h"

namespace blackbox {
namespace enumerate {

using reorder::CanonicalString;
using reorder::PlanPtr;

namespace {

/// A discovered-but-uncosted plan. Frontier order is (bound, canonical form):
/// the bound drives the search, the canonical form makes pops deterministic
/// when bounds tie.
struct FrontierEntry {
  double bound;
  std::string canonical;
  PlanPtr plan;
};

struct FrontierOrder {
  bool operator()(const FrontierEntry& a, const FrontierEntry& b) const {
    // std::priority_queue is a max-heap; invert for min-first.
    if (a.bound != b.bound) return a.bound > b.bound;
    return a.canonical > b.canonical;
  }
};

struct Costed {
  double cost = 0;
  int num_chains = 0;
  RankedAlternative alt;
};

/// The final ranking order: cost, then fewer chains, then canonical form, so
/// equal-cost plans order deterministically.
bool CostLess(const Costed& a, const Costed& b) {
  if (a.cost != b.cost) return a.cost < b.cost;
  if (a.num_chains != b.num_chains) return a.num_chains < b.num_chains;
  return a.alt.canonical < b.alt.canonical;
}

}  // namespace

StatusOr<RankedResult> RankedEnumerate(const dataflow::AnnotatedFlow& af,
                                       const optimizer::CostWeights& weights,
                                       const RankedOptions& options) {
  if (options.top_k == 0) {
    return Status::InvalidArgument("RankedOptions::top_k must be positive");
  }
  if (options.cost_epsilon < 0) {
    return Status::InvalidArgument(
        "RankedOptions::cost_epsilon must be non-negative");
  }

  auto t0 = std::chrono::steady_clock::now();
  RankedResult result;
  if (options.max_plans == 0) {
    result.truncated = true;
    return result;
  }

  const dataflow::DataFlow& flow = *af.flow;
  reorder::ReorderOracle oracle(&af);

  std::priority_queue<FrontierEntry, std::vector<FrontierEntry>, FrontierOrder>
      frontier;
  std::unordered_set<std::string> seen;
  std::vector<Costed> costed;  // kept sorted by CostLess
  int64_t costing_nanos = 0;

  PlanPtr original = reorder::PlanFromFlow(flow);
  std::string canon = CanonicalString(original);
  seen.insert(canon);
  frontier.push({optimizer::LowerBoundCost(af, original, weights),
                 std::move(canon), std::move(original)});

  while (!frontier.empty()) {
    FrontierEntry top = frontier.top();
    frontier.pop();

    // Anytime stop rule: bounds only grow as we pop, so once the cheapest
    // remaining bound exceeds the k-th best COST (+ epsilon), no uncosted
    // plan can displace or tie into the top-k. `>` (not `>=`) keeps exact
    // cost ties alive so the chain/canonical tie-break sees every contender.
    if (costed.size() >= options.top_k &&
        top.bound > costed[options.top_k - 1].cost + options.cost_epsilon) {
      result.stopped_early = true;
      result.plans_pruned = frontier.size() + 1;
      break;
    }

    auto c0 = std::chrono::steady_clock::now();
    StatusOr<optimizer::PhysicalPlan> phys =
        optimizer::OptimizePhysical(af, top.plan, weights);
    costing_nanos += std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - c0)
                         .count();
    if (!phys.ok()) return phys.status();
    Costed c;
    c.cost = phys->total_cost;
    c.num_chains = phys->num_chains;
    c.alt.logical = top.plan;
    c.alt.physical = std::move(phys).value();
    c.alt.canonical = top.canonical;
    costed.insert(std::upper_bound(costed.begin(), costed.end(), c, CostLess),
                  std::move(c));
    ++result.plans_enumerated;

    // Expand this plan's rewrite neighbors into the frontier.
    std::vector<PlanPtr> neighbors;
    PlanNeighbors(top.plan, flow, oracle, &neighbors,
                  &result.rewrites_rejected);
    for (PlanPtr& n : neighbors) {
      ++result.rewrites_applied;
      std::string key = CanonicalString(n);
      if (!seen.insert(key).second) continue;
      if (seen.size() > options.max_plans) {
        result.truncated = true;
        continue;
      }
      frontier.push({optimizer::LowerBoundCost(af, n, weights),
                     std::move(key), std::move(n)});
    }
  }

  size_t keep = std::min(options.top_k, costed.size());
  result.ranked.reserve(keep);
  for (size_t i = 0; i < keep; ++i) {
    result.ranked.push_back(std::move(costed[i].alt));
  }
  result.costing_seconds = static_cast<double>(costing_nanos) * 1e-9;
  result.search_seconds =
      std::max(0.0, std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                            .count() -
                        result.costing_seconds);
  return result;
}

}  // namespace enumerate
}  // namespace blackbox
