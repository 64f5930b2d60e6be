#include "core/optimizer_api.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

namespace blackbox {
namespace core {

const PlannedAlternative& OptimizationResult::best() const {
  if (ranked.empty()) {
    std::fprintf(stderr,
                 "OptimizationResult::best(): no ranked alternatives (was "
                 "this result produced by Optimize()?)\n");
    std::abort();
  }
  return ranked.front();
}

StatusOr<OptimizationResult> BlackBoxOptimizer::Optimize(
    const dataflow::DataFlow& flow) const {
  StatusOr<dataflow::AnnotatedFlow> af = dataflow::Annotate(flow, options_.mode);
  if (!af.ok()) return af.status();
  return OptimizeAnnotated(std::move(af).value());
}

StatusOr<OptimizationResult> BlackBoxOptimizer::OptimizeAnnotated(
    dataflow::AnnotatedFlow annotated) const {
  if (options_.top_k <= 0) {
    return Status::InvalidArgument(
        "Options::top_k must be positive (got " +
        std::to_string(options_.top_k) + ")");
  }
  if (options_.cost_epsilon < 0) {
    return Status::InvalidArgument(
        "Options::cost_epsilon must be non-negative (got " +
        std::to_string(options_.cost_epsilon) + ")");
  }

  OptimizationResult result;
  result.annotated = std::move(annotated);

  enumerate::RankedOptions ropts;
  ropts.top_k = static_cast<size_t>(options_.top_k);
  ropts.cost_epsilon = options_.cost_epsilon;
  ropts.max_plans = options_.enum_options.max_plans;
  StatusOr<enumerate::RankedResult> ranked =
      enumerate::RankedEnumerate(result.annotated, options_.weights, ropts);
  if (!ranked.ok()) return ranked.status();

  result.plans_enumerated = ranked->plans_enumerated;
  result.plans_pruned = ranked->plans_pruned;
  result.num_alternatives = ranked->plans_enumerated + ranked->plans_pruned;
  result.stopped_early = ranked->stopped_early;
  result.truncated = ranked->truncated;
  result.enumeration_seconds = ranked->search_seconds;
  result.costing_seconds = ranked->costing_seconds;
  result.ranked.reserve(ranked->ranked.size());
  for (enumerate::RankedAlternative& alt : ranked->ranked) {
    PlannedAlternative out;
    out.logical = std::move(alt.logical);
    out.cost = alt.physical.total_cost;
    out.physical = std::move(alt.physical);
    out.rank = static_cast<int>(result.ranked.size()) + 1;
    result.ranked.push_back(std::move(out));
  }
  if (result.ranked.empty()) {
    if (result.truncated) {
      return Status::OutOfRange(
          "optimization produced zero alternatives: EnumOptions::max_plans "
          "pruned everything");
    }
    return Status::InvalidArgument("optimization produced zero alternatives");
  }
  return result;
}

}  // namespace core
}  // namespace blackbox
