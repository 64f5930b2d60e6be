// Pluggable annotation sources — layer 2 of the fluent pipeline API (see
// DESIGN.md §4). The paper obtains UDF read/write sets either from static
// code analysis (§5) or from hand-written annotations (Table 1), and names
// runtime profiling as a third source of optimizer hints (§7.1, §9). Each of
// these is a provider here: the optimizer asks the provider for an
// AnnotatedFlow and never hard-codes the knowledge source, so new providers
// (a language compiler, a feedback loop over past executions) drop in
// without touching the optimizer.

#ifndef BLACKBOX_API_ANNOTATION_PROVIDER_H_
#define BLACKBOX_API_ANNOTATION_PROVIDER_H_

#include <map>
#include <string>

#include "api/profiler.h"
#include "common/status.h"
#include "dataflow/annotate.h"
#include "dataflow/flow.h"
#include "record/record.h"

namespace blackbox {
namespace api {

/// Source operator id -> bound data. Assembled by Pipeline / OptimizedProgram
/// from Stream handles; fluent user code never constructs the ids by hand.
using SourceBindings = std::map<int, const DataSet*>;

/// Turns a logical data flow into an AnnotatedFlow — the interface the
/// black-box optimizer consumes. Implementations differ only in where the
/// per-UDF knowledge comes from.
class AnnotationProvider {
 public:
  virtual ~AnnotationProvider() = default;

  virtual std::string name() const = 0;

  /// True when Annotate() reads the bound data, so the same flow annotates
  /// differently over different data. Only providers that read nothing but
  /// the flow are eligible for the plan cache (optimizer/plan_cache.h); one
  /// that measures bound data (the profiler) must return true or stale
  /// data-dependent hints would be served to unrelated datasets.
  virtual bool uses_bound_data() const { return false; }

  /// Derives the UDF annotations of `flow`. The result owns a private
  /// snapshot of the flow (AnnotatedFlow::owner), so providers that refine
  /// the flow first — e.g. writing profiled hints — do so without mutating
  /// the caller's flow. `sources` carries pre-optimization data bindings;
  /// providers that only inspect UDF code ignore it.
  virtual StatusOr<dataflow::AnnotatedFlow> Annotate(
      const dataflow::DataFlow& flow, const SourceBindings& sources) const = 0;
};

/// Opens the black boxes by statically analyzing each UDF's TAC code (§5).
class ScaProvider : public AnnotationProvider {
 public:
  std::string name() const override { return "sca"; }
  StatusOr<dataflow::AnnotatedFlow> Annotate(
      const dataflow::DataFlow& flow,
      const SourceBindings& sources) const override;
};

/// Uses the hand-written Operator::manual_summary annotations (the "Manual
/// Annotation" column of Table 1). Errors if any operator lacks one.
class ManualProvider : public AnnotationProvider {
 public:
  std::string name() const override { return "manual"; }
  StatusOr<dataflow::AnnotatedFlow> Annotate(
      const dataflow::DataFlow& flow,
      const SourceBindings& sources) const override;
};

/// Profiler-refined hints (§7.1 lists runtime profiling as a hint source;
/// §9 names it as future work): runs the authored plan through the engine
/// over a sample of every bound source (api/profiler.h), writes the metered
/// selectivity / CPU cost / distinct keys into the operators' hints, then
/// annotates with `base_mode`. Requires data to be bound for every source
/// before Optimize().
class ProfilerProvider : public AnnotationProvider {
 public:
  struct Options {
    ProfileOptions profile;
    /// How the read/write sets themselves are obtained; profiling only
    /// refines the cost hints.
    dataflow::AnnotationMode base_mode = dataflow::AnnotationMode::kSca;
    /// Discard all hand-written hints first, so the optimizer sees measured
    /// values only. Operators the sampled run never reached then fall back
    /// to default hints; with reset_hints = false their hand-written hints
    /// survive instead.
    bool reset_hints = false;
  };

  ProfilerProvider() = default;
  explicit ProfilerProvider(Options options) : options_(options) {}

  std::string name() const override { return "profiler"; }
  /// Profiled hints are measured from the bound sample data — two pipelines
  /// with identical code but different data annotate differently, so the
  /// plan cache must not serve one the other's plans.
  bool uses_bound_data() const override { return true; }
  StatusOr<dataflow::AnnotatedFlow> Annotate(
      const dataflow::DataFlow& flow,
      const SourceBindings& sources) const override;

 private:
  Options options_;
};

}  // namespace api
}  // namespace blackbox

#endif  // BLACKBOX_API_ANNOTATION_PROVIDER_H_
