#include "api/optimized_program.h"

#include <cstdio>
#include <functional>
#include <string>
#include <utility>

#include "api/pipeline.h"
#include "common/defaults.h"
#include "optimizer/plan_cache.h"
#include "reorder/plan.h"

namespace blackbox {
namespace api {

namespace {

/// The plan cache's type-erased payload: the full (immutable) optimization
/// result. Insert and lookup both live in this translation unit, so the
/// static downcast in OptimizeFlow is always valid.
class CachedOptimization : public optimizer::PlanCacheValue {
 public:
  explicit CachedOptimization(
      std::shared_ptr<const core::OptimizationResult> result)
      : result(std::move(result)) {}
  std::shared_ptr<const core::OptimizationResult> result;
};

}  // namespace

const core::OptimizationResult& OptimizedProgram::res() const {
  if (result_) return *result_;
  static const core::OptimizationResult* empty =
      new core::OptimizationResult();
  return *empty;
}

int OptimizedProgram::ImplementedIndex() const {
  if (!flow_) return -1;
  std::string key = reorder::CanonicalString(reorder::PlanFromFlow(*flow_));
  const auto& ranked = res().ranked;
  for (size_t i = 0; i < ranked.size(); ++i) {
    if (reorder::CanonicalString(ranked[i].logical) == key) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

double OptimizedProgram::EstimatedPeakBytes(size_t index, int dop_in) const {
  const auto& ranked = res().ranked;
  if (index >= ranked.size()) return 0;
  const optimizer::PhysicalPlan& plan = ranked[index].physical;
  if (dop_in <= 0) dop_in = exec_.dop;
  double dop = dop_in > 0 ? dop_in : 1;
  double peak = 0;
  std::function<void(const optimizer::PhysicalNode&)> walk =
      [&](const optimizer::PhysicalNode& n) {
        if (n.local != optimizer::LocalStrategy::kNone) {
          // A breaker materializes its inputs; per instance a broadcast side
          // lands in full, a partitioned/forward side is spread across dop.
          for (size_t i = 0; i < n.children.size(); ++i) {
            const optimizer::PhysicalNode& c = *n.children[i];
            double bytes = c.est_rows * c.est_bytes_per_row;
            bool broadcast = i < n.ships.size() &&
                             n.ships[i] == optimizer::ShipStrategy::kBroadcast;
            peak += broadcast ? bytes : bytes / dop;
          }
        }
        for (const auto& c : n.children) walk(*c);
      };
  if (plan.root) walk(*plan.root);
  return peak;
}

Status OptimizedProgram::BindSource(const Stream& source, const DataSet* data) {
  if (!flow_) return Status::InvalidArgument("program is not optimized");
  if (!source.ok()) return Status::InvalidArgument("invalid stream handle");
  if (origin_pipeline_ == nullptr) {
    return Status::InvalidArgument(
        "program was optimized from a raw DataFlow; bind data with "
        "BindSources()");
  }
  if (source.pipeline_ != origin_pipeline_) {
    return Status::InvalidArgument(
        "stream handle belongs to a different pipeline than this program");
  }
  if (data == nullptr) return Status::InvalidArgument("null data set");
  int id = source.id();
  if (id < 0 || id >= flow_->num_ops() ||
      flow_->op(id).kind != dataflow::OpKind::kSource) {
    return Status::InvalidArgument("stream handle is not a data source");
  }
  sources_[id] = data;
  return Status::OK();
}

Status OptimizedProgram::BindSources(const std::map<int, DataSet>& data) {
  if (!flow_) return Status::InvalidArgument("program is not optimized");
  for (const auto& [id, ds] : data) {
    if (id < 0 || id >= flow_->num_ops() ||
        flow_->op(id).kind != dataflow::OpKind::kSource) {
      return Status::InvalidArgument("id " + std::to_string(id) +
                                     " is not a data source");
    }
    sources_[id] = &ds;
  }
  return Status::OK();
}

StatusOr<DataSet> OptimizedProgram::Run(size_t index,
                                        engine::ExecStats* stats) const {
  return RunWith(index, exec_, stats);
}

StatusOr<DataSet> OptimizedProgram::RunWith(size_t index,
                                            const engine::ExecOptions& exec,
                                            engine::ExecStats* stats) const {
  if (!flow_) return Status::InvalidArgument("program is not optimized");
  const core::OptimizationResult& result = res();
  if (index >= result.ranked.size()) {
    return Status::OutOfRange(
        "alternative index " + std::to_string(index) + " out of range (" +
        std::to_string(result.ranked.size()) + " ranked alternatives)");
  }
  for (int id = 0; id < flow_->num_ops(); ++id) {
    if (flow_->op(id).kind == dataflow::OpKind::kSource &&
        sources_.find(id) == sources_.end()) {
      return Status::InvalidArgument("source \"" + flow_->op(id).name +
                                     "\" has no bound data");
    }
  }
  engine::Executor executor(&result.annotated, exec);
  for (const auto& [id, data] : sources_) executor.BindSource(id, data);
  return executor.Execute(result.ranked[index].physical, stats);
}

StatusOr<OptimizedProgram> OptimizeFlow(const dataflow::DataFlow& flow,
                                        const AnnotationProvider& provider,
                                        const OptimizeOptions& options,
                                        const SourceBindings& sources) {
  if (options.top_k <= 0) {
    return Status::InvalidArgument("OptimizeOptions::top_k must be positive "
                                   "(got " +
                                   std::to_string(options.top_k) + ")");
  }
  if (options.cost_epsilon < 0) {
    return Status::InvalidArgument(
        "OptimizeOptions::cost_epsilon must be non-negative (got " +
        std::to_string(options.cost_epsilon) + ")");
  }

  core::BlackBoxOptimizer::Options copts;
  copts.weights = options.weights;
  copts.enum_options = options.enum_options;
  copts.top_k = options.top_k;
  copts.cost_epsilon = options.cost_epsilon;
  if (options.cost_model_follows_exec) {
    // Estimates and measured runs must describe the same simulated cluster.
    // A caller-supplied cost-model cluster that contradicts the exec cluster
    // is a configuration bug — surface it instead of silently overwriting.
    // (Best-effort: the shared default doubles as the "untouched" sentinel,
    // so explicitly setting a weight to its default value is indistinguishable
    // from leaving it alone; cost for a deliberately different cluster by
    // clearing cost_model_follows_exec instead.)
    if (options.weights.dop != kDefaultDop &&
        options.weights.dop != options.exec.dop) {
      return Status::InvalidArgument(
          "cost_model_follows_exec is set but weights.dop (" +
          std::to_string(options.weights.dop) + ") contradicts exec.dop (" +
          std::to_string(options.exec.dop) + ")");
    }
    if (options.weights.mem_budget_bytes != kDefaultMemBudgetBytes &&
        options.weights.mem_budget_bytes != options.exec.mem_budget_bytes) {
      return Status::InvalidArgument(
          "cost_model_follows_exec is set but weights.mem_budget_bytes "
          "contradicts exec.mem_budget_bytes");
    }
    copts.weights.dop = options.exec.dop;
    copts.weights.mem_budget_bytes = options.exec.mem_budget_bytes;
  }

  // Plan-cache lookup BEFORE annotation: a hit skips UDF analysis too. The
  // key is built from the resolved weights and search knobs, so any change
  // that could alter a plan or a cost misses. Execution options are absent
  // (plans are thread-count-invariant by construction).
  OptimizedProgram program;
  program.sources_ = sources;
  program.exec_ = options.exec;
  const bool cacheable = options.use_plan_cache && !provider.uses_bound_data();
  std::string cache_key;
  if (cacheable) {
    cache_key = optimizer::PlanCacheKey(
        flow, provider.name(), copts.weights, copts.enum_options, copts.top_k,
        copts.cost_epsilon);
    if (std::shared_ptr<const optimizer::PlanCacheValue> hit =
            optimizer::PlanCache::Global().Lookup(cache_key)) {
      program.result_ =
          static_cast<const CachedOptimization&>(*hit).result;
      program.flow_ = program.result_->annotated.owner;
      program.from_plan_cache_ = true;
      return program;
    }
  } else if (options.use_plan_cache) {
    optimizer::PlanCache::Global().RecordBypass();
  }

  StatusOr<dataflow::AnnotatedFlow> af = provider.Annotate(flow, sources);
  if (!af.ok()) return af.status();
  if (!af->owner) {
    return Status::Internal("provider \"" + provider.name() +
                            "\" returned an annotation without an owned "
                            "flow snapshot");
  }
  copts.mode = af->mode;

  StatusOr<core::OptimizationResult> result =
      core::BlackBoxOptimizer(copts).OptimizeAnnotated(std::move(af).value());
  if (!result.ok()) return result.status();
  if (result->truncated) {
    std::fprintf(stderr,
                 "warning: plan enumeration hit max_plans=%zu; ranking "
                 "covers a partial plan space of %zu alternatives\n",
                 options.enum_options.max_plans, result->ranked.size());
  }

  auto shared = std::make_shared<const core::OptimizationResult>(
      std::move(result).value());
  if (cacheable) {
    optimizer::PlanCache::Global().Insert(
        cache_key, std::make_shared<CachedOptimization>(shared));
  }
  program.result_ = std::move(shared);
  program.flow_ = program.result_->annotated.owner;
  return program;
}

}  // namespace api
}  // namespace blackbox
