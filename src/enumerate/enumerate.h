// Plan-space enumeration (Section 6). Two implementations:
//
// 1. EnumerateAlternatives — the reference closure: a BFS of the initial
//    plan under all valid pairwise reorderings (unary swaps, unary/binary
//    pushes, binary rotations) with canonical-form deduplication. Handles
//    arbitrary tree-shaped flows with binary operators, like the paper's
//    implementation. The optimizer itself searches the same edges
//    best-first (ranked.h); the enumeration tests compare that search's
//    plan set against this independent BFS.
//
// 2. EnumerateChainAlgorithm1 — a faithful transcription of the paper's
//    Algorithm 1 (recursive root-removal with a memo table), restricted to
//    single-input operator chains as presented in the paper. Used to
//    cross-validate the closure enumerator.

#ifndef BLACKBOX_ENUMERATE_ENUMERATE_H_
#define BLACKBOX_ENUMERATE_ENUMERATE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "reorder/conditions.h"
#include "reorder/plan.h"

namespace blackbox {
namespace enumerate {

struct EnumOptions {
  /// Safety valve against search-space explosions. Hitting the limit stops
  /// enumeration and marks the result truncated (it is NOT an error): the
  /// returned plans are a valid but partial closure. EnumerateAlternatives
  /// keeps the first max_plans plans in BFS order; the optimizer's ranked
  /// search keeps the first max_plans it discovers best-first (see
  /// RankedOptions::max_plans), so the two keep different subsets.
  size_t max_plans = 1'000'000;
};

struct EnumResult {
  std::vector<reorder::PlanPtr> plans;  // first entry is the original plan
  size_t rewrites_applied = 0;          // total successful edge rewrites
  size_t rewrites_rejected = 0;         // reorderable() returned false
  bool truncated = false;               // max_plans hit; partial closure
};

/// Enumerates all data flows derivable from the original flow by valid
/// pairwise reorderings (closure semantics), in BFS discovery order.
StatusOr<EnumResult> EnumerateAlternatives(const dataflow::AnnotatedFlow& af,
                                           const EnumOptions& options = {});

/// Algorithm 1 from the paper, for chains of unary operators. Returns an
/// error if the flow contains binary operators.
StatusOr<EnumResult> EnumerateChainAlgorithm1(
    const dataflow::AnnotatedFlow& af, const EnumOptions& options = {});

/// The closure's edge relation: appends to `out` every plan obtainable from
/// `plan` by applying exactly one valid rewrite (unary swap, unary/binary
/// push, binary rotation) somewhere in the tree; `rejected` counts oracle
/// refusals. Shared by the closure enumerator (BFS over these edges) and the
/// ranked best-first search (ranked.h), so both walk the identical plan
/// space.
void PlanNeighbors(const reorder::PlanPtr& plan,
                   const dataflow::DataFlow& flow,
                   const reorder::ReorderOracle& oracle,
                   std::vector<reorder::PlanPtr>* out, size_t* rejected);

}  // namespace enumerate
}  // namespace blackbox

#endif  // BLACKBOX_ENUMERATE_ENUMERATE_H_
