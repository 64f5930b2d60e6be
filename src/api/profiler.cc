#include "api/profiler.h"

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "dataflow/annotate.h"
#include "engine/executor.h"
#include "optimizer/physical.h"
#include "reorder/plan.h"

namespace blackbox {
namespace api {

using dataflow::OpKind;

StatusOr<FlowProfile> ProfileFlow(
    const dataflow::DataFlow& flow,
    const std::map<int, const DataSet*>& source_data,
    const ProfileOptions& options) {
  const size_t num_ops = static_cast<size_t>(flow.num_ops());
  std::vector<double> fraction(num_ops, 1.0);  // sample rows / true rows
  std::vector<int64_t> rows(num_ops, 0);       // sampled output rows

  // A uniform sample of every source, drawn in op-id order with one draw
  // per row and kept in source layout: the engine's scan widens it.
  Rng rng(options.seed);
  std::map<int, DataSet> samples;
  for (int id = 0; id < flow.num_ops(); ++id) {
    const dataflow::Operator& op = flow.op(id);
    if (op.kind != OpKind::kSource) continue;
    auto it = source_data.find(id);
    if (it == source_data.end()) {
      return Status::InvalidArgument("no data bound for source " + op.name);
    }
    const DataSet& full = *it->second;
    double keep = full.size() > options.sample_records
                      ? static_cast<double>(options.sample_records) /
                            full.size()
                      : 1.0;
    DataSet& sample = samples[id];
    for (size_t ri = 0; ri < full.size(); ++ri) {
      if (rng.Chance(keep)) sample.Add(full.record(ri));
    }
    fraction[id] = keep;
    rows[id] = static_cast<int64_t>(sample.size());
  }

  // The authored plan, at dop 1 with the combiner, chain specialization and
  // data skipping off: every UDF operator runs by itself, once per record,
  // pair or group, so its per_op meters are its own calls and emits.
  StatusOr<dataflow::AnnotatedFlow> af =
      dataflow::Annotate(flow, dataflow::AnnotationMode::kSca);
  if (!af.ok()) return af.status();
  optimizer::CostWeights weights;
  weights.dop = 1;
  weights.enable_combiner = false;
  StatusOr<optimizer::PhysicalPlan> plan =
      optimizer::OptimizePhysical(*af, reorder::PlanFromFlow(flow), weights);
  if (!plan.ok()) return plan.status();
  engine::ExecOptions eo;
  eo.dop = 1;
  eo.enable_chain_specialization = false;
  eo.enable_data_skipping = false;
  engine::Executor exec(&*af, eo);
  for (const auto& [id, sample] : samples) exec.BindSource(id, &sample);
  engine::ExecStats stats;
  StatusOr<DataSet> out = exec.Execute(*plan, &stats);
  if (!out.ok()) return out.status();

  FlowProfile profile;
  for (int id = 0; id < flow.num_ops(); ++id) {  // inputs before consumers
    const dataflow::Operator& op = flow.op(id);
    if (op.kind == OpKind::kSource || op.kind == OpKind::kSink) continue;
    const engine::ExecStats::OpMeters& m = stats.per_op[id];
    OperatorProfile& prof = profile.per_op[id];
    prof.calls = m.udf_calls;
    prof.emitted = m.rows_out;
    prof.cpu_seconds =
        static_cast<double>(m.interp_instructions) /
            eo.interp_instructions_per_s +
        static_cast<double>(m.cpu_burn_units) / eo.cpu_burn_units_per_s;
    rows[id] = m.rows_out;
    for (int in : op.inputs) {
      fraction[id] = std::min(fraction[id], fraction[in]);
    }
    if (op.kind == OpKind::kReduce || op.kind == OpKind::kCoGroup) {
      // One call per key: scale the sample's key count to the full data.
      prof.distinct_keys_scaled =
          fraction[id] > 0 && fraction[id] < 1.0
              ? static_cast<int64_t>(static_cast<double>(prof.calls) /
                                     fraction[id])
              : prof.calls;
    } else if (op.kind == OpKind::kMatch && prof.calls > 0) {
      prof.distinct_keys_scaled =
          rows[op.inputs[0]] * rows[op.inputs[1]] / prof.calls;
    }
  }
  return profile;
}

void ApplyProfile(const FlowProfile& profile, dataflow::DataFlow* flow) {
  // Normalize cpu cost so the cheapest profiled operator has cost 1.
  double min_per_call = -1;
  for (const auto& [id, prof] : profile.per_op) {
    if (prof.calls == 0) continue;
    double per_call = prof.cpu_seconds / prof.calls;
    if (min_per_call < 0 || per_call < min_per_call) min_per_call = per_call;
  }
  if (min_per_call <= 0) min_per_call = 1e-9;

  for (const auto& [id, prof] : profile.per_op) {
    if (prof.calls == 0) continue;
    dataflow::Operator& op = flow->op(id);
    op.hints.selectivity = prof.selectivity();
    op.hints.cpu_cost_per_call = (prof.cpu_seconds / prof.calls) / min_per_call;
    if (prof.distinct_keys_scaled > 0) {
      op.hints.distinct_keys = prof.distinct_keys_scaled;
    }
  }
}

}  // namespace api
}  // namespace blackbox
