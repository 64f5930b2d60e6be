// Parallel execution engine simulator — the Nephele substitute (see
// DESIGN.md §2). Executes a physical plan over real data with a configurable
// degree of parallelism: records live in hash partitions, shipping strategies
// move bytes between (simulated) instances with exact byte accounting, local
// strategies build real hash tables / sorted groups, and every UDF call runs
// through the TAC interpreter.
//
// Data plane (DESIGN.md §2.2): records flow in RecordBatches, and operators
// execute as fused chains — a pipeline breaker (shuffle, group build, join
// build, sort) plus the maximal run of forward-shipped record-at-a-time
// stages above it. Within a chain, each partition task pulls batches through
// every stage in one pass, so intermediate Map outputs never materialize;
// only breaker buffers do, and the peak_bytes meter proves it.
//
// Per-partition operator work (scan widening, chain runs, Map/Reduce loops,
// hash-join build/probe, sort-merge join, combiner pre-aggregation, cross,
// co-group) runs as independent partition tasks on a TaskPool of
// ExecOptions::num_threads workers. All per-partition state (hash tables,
// sorted groups, Interpreter instances, batch pools, meters) is task-local
// and merged in partition order, so sink output, meters, and
// simulated_seconds are byte-identical for every thread count — only
// wall_seconds (real elapsed time) varies (DESIGN.md §2.1).

#ifndef BLACKBOX_ENGINE_EXECUTOR_H_
#define BLACKBOX_ENGINE_EXECUTOR_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/defaults.h"
#include "common/status.h"
#include "common/task_pool.h"
#include "dataflow/annotate.h"
#include "optimizer/physical.h"
#include "record/record.h"
#include "record/record_batch.h"

namespace blackbox {
namespace engine {

class BudgetPool;

struct ExecOptions {
  int dop = kDefaultDop;  // number of simulated parallel instances

  /// Per-instance memory budget: the bytes one simulated instance may hold
  /// in materialized inter-operator buffers before its breakers spill whole
  /// RecordBatch runs to temp files (DESIGN.md §2.3). Enforced for real —
  /// ExecStats::peak_bytes stays within budget plus bounded slack (the
  /// record in flight, plus sub-quarter-budget holders the eviction floor
  /// leaves alone) by construction, and disk_bytes measures the traffic.
  /// Must be positive: Execute() rejects zero and negative budgets with a
  /// clean Status (a zero budget would degenerate into a run file per
  /// record); a budget smaller than one batch still runs, degrading to
  /// roughly one spill run per budget-sized slice.
  double mem_budget_bytes = kDefaultMemBudgetBytes;

  /// Directory for spill run files; "" uses the system temp directory. A
  /// per-execution subdirectory is created on first spill and removed —
  /// with everything in it — when the execution ends, successful or not.
  /// The subdirectory name is process-unique (pid + a process-wide
  /// counter), so concurrent executions sharing one spill root can never
  /// collide on run files.
  std::string spill_dir;

  /// Optional human-readable suffix for this execution's spill
  /// subdirectory (sanitized; the serving layer tags each query's spills
  /// with its query id so concurrent queries' disk usage is attributable).
  std::string spill_tag;

  /// Parent budget pool this execution's per-instance ledgers report their
  /// live bytes to (borrowed; may be null). The serving layer carves a
  /// per-query budget from the pool at admission and attaches it here, so
  /// aggregate peak memory across concurrent queries is bounded and
  /// measured (DESIGN.md §2.4). Accounting only — spill decisions still
  /// compare each instance against mem_budget_bytes.
  BudgetPool* ledger_parent = nullptr;

  /// Worker pool to run partition tasks on (borrowed; may be null). When
  /// set, Execute() submits onto it instead of creating a private pool —
  /// the serving layer shares one pool across all concurrent queries.
  /// Overrides num_threads. The determinism contract is unchanged: results
  /// are byte-identical whichever pool executes the tasks.
  TaskPool* worker_pool = nullptr;

  /// Priority of this execution's partition tasks on the (shared) worker
  /// pool: tasks with a higher class jump the queue (TaskPool::ParallelFor),
  /// which lets the serving layer keep short interactive queries ahead of
  /// long scans without affecting any result (scheduling order never
  /// changes output — DESIGN.md §2.1).
  int task_priority = 0;

  /// Cancellation / deadline token for this execution (borrowed; may be
  /// null). Polled at chain batch boundaries, spill-manager evictions and
  /// reads, external-sort merge passes, and (amortized) inside the
  /// interpreter's batch loops, so a cancelled or past-deadline execution
  /// unwinds within roughly one batch of work, returning Cancelled /
  /// DeadlineExceeded through the ordinary Status path. Cleanup is pure
  /// RAII — ledgers release their bytes and the spill directory removes
  /// itself — so early unwind leaves nothing behind. Polling is read-only:
  /// a token that never fires changes no output and no meter (the
  /// determinism contract is untouched). Execution-only, like worker_pool:
  /// never part of any plan-cache key.
  CancelToken* cancel = nullptr;

  /// Test-only fault injection: when > 0, spill writes fail with a clean
  /// Status once this many payload bytes were spilled across the execution.
  int64_t spill_fault_after_bytes = 0;

  /// Test-only: when > 0 (and `cancel` is set), the token is cancelled as
  /// soon as this many payload bytes were spilled — a deterministic way to
  /// cancel an execution *mid-spill*, independent of wall-clock timing.
  int64_t cancel_after_spill_bytes = 0;

  /// Real worker threads executing partition tasks. Independent of `dop`
  /// (the *simulated* cluster width): any thread count produces identical
  /// results; more threads only shrink wall_seconds. <= 0 picks the
  /// hardware concurrency.
  int num_threads = 1;

  /// Fused operator chains (the default). When false ("--no-chain"), every
  /// chain is cut after its first stage, so every plan node materializes its
  /// full output before the next starts — the pre-streaming data plane, kept
  /// as the differential reference: sink output, byte meters, and
  /// simulated_seconds are byte-identical in both modes; only peak_bytes
  /// (and wall time) may differ — see DESIGN.md §2.2.
  bool fuse_chains = true;

  /// Records per RecordBatch flowing through a chain. Any value >= 1
  /// produces identical output and meters; this only trades batch-dispatch
  /// amortization against buffer footprint.
  size_t batch_capacity = RecordBatch::kDefaultCapacity;

  /// Zone-map data skipping (DESIGN.md §2.5): refute whole batches against
  /// filter chains and skip spilled build runs whose key ranges cannot
  /// intersect a probe batch. Sink output and the byte meters
  /// (network/disk/output) are identical either way — skipping only elides
  /// work that provably produces nothing; CPU-side meters (udf_calls,
  /// interp_instructions, records_processed, cpu_burn_units) shrink. Off
  /// reproduces the pre-skipping execution exactly (the ablation baseline).
  bool enable_data_skipping = true;

  /// Fused-chain TAC specialization (DESIGN.md §2.6, the default): at chain
  /// assignment, the TAC programs of a chain's record-at-a-time stages are
  /// constant-folded into one fused program per chain (tac::FuseMapChain),
  /// executed by Interpreter::RunFusedChain with chain-input reads served by
  /// a lazy ColumnView and a per-chain adaptive batch capacity derived from
  /// observed bytes-per-row. Sink output and the byte meters (network, disk,
  /// peak, skipped_spill) are identical either way — specialization never
  /// changes what records reach a breaker or the sink, only how many
  /// interpreter instructions produce them; CPU-side meters (udf_calls,
  /// interp_instructions, records_processed, skipped_batches) legitimately
  /// differ, because one fused call replaces a call per stage and batch
  /// refutation happens once per chain instead of once per stage. Chains the
  /// fuser cannot prove byte-identical fall back to staged interpretation.
  bool enable_chain_specialization = true;

  // Machine model for simulated time. Metered network/disk bytes are charged
  // against these bandwidths; metered compute (UDF calls, records, calibrated
  // CPU burn) is charged against the throughputs below. The defaults are
  // calibrated so that the compute/IO balance at our reduced data scale
  // resembles the paper's 1 GbE four-node cluster, where shipping and
  // spilling dominate (DESIGN.md §2).
  double net_bandwidth_bytes_per_s = 24.0 * (1 << 20);
  double disk_bandwidth_bytes_per_s = 48.0 * (1 << 20);
  double interp_instructions_per_s = 50e6;  // TAC instruction throughput
  double cpu_burn_units_per_s = 1e9;        // CpuBurn loop throughput
  double records_per_s = 2e6;               // per-record engine overhead
};

/// Metered resources of one plan execution. The same quantities the cost
/// model estimates, but measured. Every field except wall_seconds is a pure
/// function of (plan, data, dop, mem_budget, fuse_chains,
/// enable_data_skipping, enable_chain_specialization) — identical for every
/// num_threads. Across fused and unfused execution — and across chain
/// specialization on/off — network_bytes, disk_bytes, output_rows, and
/// simulated byte traffic are identical; the CPU-side meters (udf_calls,
/// interp_instructions, records_processed, cpu_burn_units, skipped_batches)
/// may legitimately differ between modes, because fusion/specialization
/// change which batch boundaries a refutation sees and how many interpreter
/// calls produce the same records.
struct ExecStats {
  int64_t network_bytes = 0;  // bytes crossing instance boundaries

  /// Measured spill traffic: file bytes actually written to and read back
  /// from spill runs (small batch headers included). Zero iff no breaker
  /// exceeded the memory budget anywhere in the run.
  int64_t disk_bytes = 0;
  int64_t udf_calls = 0;
  int64_t interp_instructions = 0;  // TAC instructions executed by UDF calls
  int64_t cpu_burn_units = 0;
  int64_t records_processed = 0;
  int64_t output_rows = 0;

  /// Whole batches refuted by a zone-map sketch and skipped without
  /// interpreting a record (chain stages, and in-memory build batches a
  /// probe batch's key range cannot match).
  int64_t skipped_batches = 0;

  /// File bytes of spilled build-side runs NOT read back because the run
  /// header's key-column sketch cannot intersect the probe batch's. These
  /// bytes are charged here instead of disk_bytes, so
  /// disk_bytes(skipping on) + skipped_spill_bytes accounts for the same
  /// traffic disk_bytes alone measures with skipping off on re-scan paths.
  int64_t skipped_spill_bytes = 0;

  /// Chains executed through a fused specialized program (counted once per
  /// chain per partitioned execution pass). Zero when
  /// enable_chain_specialization is off or every chain fell back to staged
  /// interpretation.
  int64_t fused_chains = 0;

  /// Estimated interpreter instructions the fused programs avoided: the
  /// fuser's static per-record saving (stage program sizes minus fused body
  /// size) times the input records run through each fused chain.
  int64_t specialized_instructions_saved = 0;

  /// Chain-input columns never materialized by fused runs: per processed
  /// batch, the record width minus the columns the fused program actually
  /// touched through its ColumnView (the SCA-read-set projection win).
  int64_t projected_fields_skipped = 0;

  /// High-water mark of the serialized bytes any single simulated instance
  /// held in materialized inter-operator buffers (pipeline-breaker inputs
  /// and outputs) — the quantity ExecOptions::mem_budget_bytes bounds
  /// (DESIGN.md §2.3). Each instance's ledger is touched only by that
  /// partition's task (or the serial shuffle), so the maximum is
  /// deterministic for every num_threads; fused execution lowers it, never
  /// the other meters. Transient working state — in-flight chain batches,
  /// single read-back batches, one key group's members during a UDF call —
  /// is outside the ledger, like the bound source DataSets.
  int64_t peak_bytes = 0;

  /// One operator's share of the UDF meters.
  struct OpMeters {
    int64_t udf_calls = 0;
    int64_t rows_out = 0;  // records the operator's UDF calls emitted
    int64_t interp_instructions = 0;
    int64_t cpu_burn_units = 0;
  };

  /// The UDF meters per operator, indexed by op id, bumped at the same
  /// sites as the plan totals: over every operator they sum to udf_calls,
  /// interp_instructions and cpu_burn_units. A fused chain runs as one
  /// program and is charged to its bottom Map (its rows_out are then the
  /// chain's). Thread-count invariant like every meter above.
  std::vector<OpMeters> per_op;

  double wall_seconds = 0;  // real elapsed time (varies with num_threads)

  /// The "execution runtime" the figure benchmarks report: modeled compute
  /// time (metered calls/records/burn over the machine-model throughputs)
  /// plus network_bytes / net_bandwidth + disk_bytes / disk_bandwidth.
  /// Deterministic — derived from meters, not from wall_seconds.
  double simulated_seconds = 0;

  /// Adds the additive meters (bytes, calls, records, per_op) of `other`
  /// into this; leaves the derived time fields and the peak_bytes high-water
  /// mark untouched. Used to merge per-partition task meters in partition
  /// order.
  void AddCounters(const ExecStats& other);

  std::string ToString() const;
};

/// Executes physical plans against source data sets. Source records use the
/// source's own layout (arity = source_arity); the executor widens them to
/// the global record layout at scan time.
class Executor {
 public:
  Executor(const dataflow::AnnotatedFlow* af, ExecOptions options = {})
      : af_(af), options_(options) {}

  /// Binds the data of a source operator.
  void BindSource(int source_op_id, const DataSet* data) {
    sources_[source_op_id] = data;
  }

  /// Runs the plan; returns the sink output projected onto the sink schema
  /// (so results of different reorderings of the same flow are comparable
  /// record-for-record).
  StatusOr<DataSet> Execute(const optimizer::PhysicalPlan& plan,
                            ExecStats* stats = nullptr);

 private:
  const dataflow::AnnotatedFlow* af_;
  ExecOptions options_;
  std::map<int, const DataSet*> sources_;
  /// Worker pool shared by every Execute() on this Executor (created on
  /// first use), so repeated runs don't respawn threads.
  std::unique_ptr<TaskPool> pool_;
};

}  // namespace engine
}  // namespace blackbox

#endif  // BLACKBOX_ENGINE_EXECUTOR_H_
