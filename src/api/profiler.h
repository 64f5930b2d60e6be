// Runtime profiling of black-box operators. The paper names runtime
// profiling as a source of optimizer hints (§7.1) and leaves estimating the
// selectivity and execution cost of black-box operators to future work (§9).
// The profiler runs the authored plan through engine::Executor over a
// uniform sample of every source — at dop 1, with the combiner, chain
// specialization and data skipping off, so every Map runs as its own stage,
// no batch is refuted and a Reduce calls its UDF once per group — and reads
// each operator's hints off ExecStats::per_op:
//
//   * selectivity        — emitted records per UDF call
//   * cpu_cost_per_call  — compute per call in the machine model's units
//                          (interpreter instructions and burn units over
//                          the ExecOptions throughputs), normalized so the
//                          cheapest operator costs 1
//   * distinct_keys      — Reduce / CoGroup: calls (one per key) scaled to
//                          the full data. When every input descends from
//                          sources through Maps only, the input is a uniform
//                          row sample, and GEE (Charikar et al., PODS 2000)
//                          scales only the keys seen once:
//                          sqrt(1/q)·f1 + (calls − f1), f1 =
//                          ExecStats::OpMeters::singleton_groups, q the
//                          sample fraction. Elsewhere, calls / q. Match:
//                          l_rows × r_rows / calls, the key domain that
//                          inverts the cost model's row estimate, in which
//                          the sample fractions cancel
//
// No hint reads a clock, so a profile is a pure function of the flow, the
// bound data and the options.

#ifndef BLACKBOX_API_PROFILER_H_
#define BLACKBOX_API_PROFILER_H_

#include <map>

#include "common/status.h"
#include "dataflow/flow.h"
#include "record/record.h"

namespace blackbox {
namespace api {

struct ProfileOptions {
  size_t sample_records = 2000;  // per source
  uint64_t seed = 1;
};

/// Measured hints for one operator.
struct OperatorProfile {
  int64_t calls = 0;
  int64_t emitted = 0;
  double cpu_seconds = 0;  // machine-model compute time of all calls
  int64_t distinct_keys_scaled = -1;

  double selectivity() const {
    return calls > 0 ? static_cast<double>(emitted) / calls : 1.0;
  }
  bool operator==(const OperatorProfile&) const = default;
};

struct FlowProfile {
  std::map<int, OperatorProfile> per_op;  // every UDF operator, by op id
  bool operator==(const FlowProfile&) const = default;
};

/// Runs the authored plan of `flow` through the engine on a uniform sample
/// of each source and meters every UDF operator. Requires data for every
/// source.
StatusOr<FlowProfile> ProfileFlow(
    const dataflow::DataFlow& flow,
    const std::map<int, const DataSet*>& source_data,
    const ProfileOptions& options = {});

/// Writes measured selectivity / cpu cost / distinct keys into the flow's
/// operator hints (leaves operators the profiler could not observe — e.g.
/// ones whose sampled input was empty — untouched).
void ApplyProfile(const FlowProfile& profile, dataflow::DataFlow* flow);

}  // namespace api
}  // namespace blackbox

#endif  // BLACKBOX_API_PROFILER_H_
