// QueryServer — the serving subsystem's front door (DESIGN.md §2.4).
// Admits many concurrent OptimizedPrograms onto one shared TaskPool under
// one global memory budget:
//
//   Submit → bounded fair-share wait queue (admission.h)
//          → budget carve from the global BudgetPool (dop × (per-instance
//            budget + slack), the worst-case aggregate the query's ledgers
//            can reach; by default the per-instance budget is first shrunk
//            to the optimizer's estimated peak for the chosen plan, so
//            conservatively-budgeted queries pack tighter)
//          → driver thread runs OptimizedProgram::RunWith with the server's
//            worker pool, a per-query spill tag, and the pool as the
//            ledger parent
//          → completion reclaims the carve, releases the tenant's slot, and
//            wakes the admission loop for the next candidate.
//
// Invariant (tested): because admission never lets Σ carves exceed the pool
// capacity and every per-instance ledger stays within budget + bounded
// slack (DESIGN.md §2.3), the pool's measured live high-water never exceeds
// capacity — violations() == 0 by construction, not by luck.
//
// Execution results are unchanged by serving: each query's output is
// byte-identical to running it solo, because the engine's determinism
// contract is per-execution and shares only the (order-oblivious) worker
// pool. Only wall-clock latency varies with load — which is exactly what
// the metrics record.

#ifndef BLACKBOX_SERVE_QUERY_SERVER_H_
#define BLACKBOX_SERVE_QUERY_SERVER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/optimized_program.h"
#include "common/cancel.h"
#include "common/status.h"
#include "common/task_pool.h"
#include "engine/executor.h"
#include "engine/spill_manager.h"
#include "serve/admission.h"
#include "serve/metrics.h"

namespace blackbox {
namespace serve {

/// Floor for a query's estimate-sized per-instance budget
/// (QueryServer::EffectiveBudgetBytes): a plan with no (or tiny) pipeline
/// breakers still needs working room for batches.
inline constexpr double kMinEstimatedBudgetBytes = 4096;

struct ServeOptions {
  /// Max queries executing at once; further admissions wait in the queue.
  int max_inflight = 4;

  /// Max queries waiting for admission (across all tenants) before Submit
  /// rejects outright.
  size_t max_queued = 64;

  /// Global memory budget all concurrent queries' carves draw from.
  double global_budget_bytes = 64.0 * (1 << 20);

  /// Per-instance slack added to each query's carve on top of its
  /// mem_budget_bytes — covers the bounded overshoot a ledger is allowed
  /// (the record in flight plus sub-quarter-budget holders, DESIGN.md
  /// §2.3). Must be at least that overshoot for the no-violation invariant
  /// to hold by construction.
  double per_instance_slack_bytes = 16.0 * 1024;

  /// Worker threads in the shared pool; <= 0 picks hardware concurrency.
  int num_threads = 0;

  /// Parent directory for all queries' spill subdirectories; "" uses the
  /// system temp directory. Each query gets its own tagged subdirectory.
  std::string spill_root;
};

struct QueryRequest {
  /// Borrowed; must outlive the query (sources stay bound by the caller).
  const api::OptimizedProgram* program = nullptr;

  /// Which ranked alternative to execute (0 = cheapest).
  size_t plan_index = 0;

  /// Fair-share identity: admissions balance across tenants.
  std::string tenant = "default";

  /// Metrics bucket: latency percentiles are reported per class.
  std::string workload_class = "default";

  /// Worker-pool priority for this query's partition tasks; > 0 jumps the
  /// shared pool's queue (for short interactive classes).
  int priority = 0;

  /// Optional absolute deadline. Armed on the query's CancelToken at
  /// Submit, so it covers queue wait AND execution: a query that waits past
  /// its deadline is culled at admission, one that runs past it unwinds at
  /// the next engine checkpoint — either way the result's status is
  /// DeadlineExceeded and the metrics count it as such, not as a failure.
  std::optional<std::chrono::steady_clock::time_point> deadline;

  /// Per-query execution options (dop, per-instance budget, batch
  /// capacity). The server overrides worker_pool, ledger_parent,
  /// spill_dir, spill_tag, task_priority, and cancel — those belong to
  /// serving.
  engine::ExecOptions exec;
};

struct QueryResult {
  Status status = Status::OK();
  DataSet output;
  engine::ExecStats stats;
  double queue_seconds = 0;  // submit → execution start
  double exec_seconds = 0;   // execution start → result
  double total_seconds = 0;  // submit → result
  uint64_t query_id = 0;
};

class QueryServer;

/// Shared rendezvous between outstanding QueryHandles and their server:
/// handles route Cancel() through it, and the server's destructor nulls the
/// back-pointer so a handle outliving the server degrades to a plain token
/// cancel instead of a dangling call.
struct CancelHub {
  std::mutex mu;
  QueryServer* server = nullptr;  // guarded by mu
};

/// Future-like completion handle. Wait() blocks until the server fulfilled
/// the result; the reference stays valid as long as the handle lives.
class QueryHandle {
 public:
  const QueryResult& Wait();

  /// Non-blocking: true once the result is available.
  bool Done() const;

  /// Requests cancellation from any thread, at any stage. Still queued: the
  /// query leaves its tenant's lane immediately, never carves budget, and
  /// the handle is fulfilled with Cancelled. Already executing: the engine
  /// unwinds at its next checkpoint (at most one batch of work), the carve
  /// is reclaimed in full, the tenant slot is released, and the tagged
  /// spill directory is removed — exactly the completion path, with a
  /// Cancelled status. Idempotent; a no-op once the query finished.
  void Cancel();

 private:
  friend class QueryServer;
  void Fulfill(QueryResult result);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  QueryResult result_;

  std::shared_ptr<CancelToken> token_;  // set by the server at Submit
  std::shared_ptr<CancelHub> hub_;
  uint64_t id_ = 0;
};

class QueryServer {
 public:
  explicit QueryServer(ServeOptions options);

  /// Drains outstanding work before shutdown.
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Accepts a query for execution. Returns immediately with a handle;
  /// rejects with InvalidArgument for a malformed request and OutOfRange
  /// when the wait queue is full or the query's carve can never fit the
  /// global budget. Thread-safe.
  StatusOr<std::shared_ptr<QueryHandle>> Submit(QueryRequest request);

  /// Blocks until every queued and in-flight query has finished and joins
  /// the finished driver threads. Safe to call repeatedly.
  void Drain();

  /// The bytes Submit would carve from the global pool for this request —
  /// the worst-case aggregate memory its dop ledgers can reach. Exposed so
  /// harnesses can size global budgets deliberately. It consults the
  /// program's EstimatedPeakBytes, so the result can be smaller than
  /// dop × (mem_budget_bytes + slack).
  static double CarveBytes(const QueryRequest& request,
                           const ServeOptions& options);

  /// The per-instance memory budget Submit would actually run this request
  /// with: the requested exec.mem_budget_bytes, shrunk to the optimizer's
  /// estimated peak (OptimizedProgram::EstimatedPeakBytes), floored at
  /// kMinEstimatedBudgetBytes. The ledger budget shrinks with the carve, so
  /// the no-violation invariant holds unchanged — an under-estimate only
  /// costs extra spilling, never extra memory, and outputs stay
  /// byte-identical — and many conservatively budgeted queries pack into
  /// one global budget. CarveBytes is dop × (this + slack).
  static double EffectiveBudgetBytes(const QueryRequest& request,
                                     const ServeOptions& options);

  const engine::BudgetPool& budget_pool() const { return budget_; }
  const ServerMetrics& metrics() const { return metrics_; }
  const ServeOptions& options() const { return options_; }

  /// Driver threads not yet reaped: running queries plus finished drivers
  /// whose handles await the next join sweep. Bounded by max_inflight plus
  /// the sweep lag (one admission or drain), unlike the old accumulate-
  /// until-Drain vector — exposed for the thread-leak regression test.
  size_t live_drivers() const;

 private:
  friend class QueryHandle;  // Cancel() routes to OnCancel via the hub

  struct QueryState {
    QueryRequest request;
    std::shared_ptr<QueryHandle> handle;
    std::shared_ptr<CancelToken> cancel;
    uint64_t id = 0;
    double carve_bytes = 0;
    std::chrono::steady_clock::time_point submit_time;
  };

  /// Admits fair-share candidates while slots and budget allow; culls
  /// cancelled / past-deadline candidates without carving. Caller holds mu_.
  void AdmitLocked();

  /// Driver-thread body: one admitted query start to finish.
  void RunQuery(std::shared_ptr<QueryState> query);

  /// QueryHandle::Cancel for a query still waiting for admission: removes
  /// it from its lane, fulfills the handle with Cancelled, and counts the
  /// metric. A query already admitted (or finished) is left alone — its
  /// driver observes the token and finishes through the normal path.
  void OnCancel(uint64_t id);

  /// Moves finished driver handles out of reap_ and joins them. Never
  /// called from a driver thread; caller must NOT hold mu_.
  void ReapFinishedDrivers();

  const ServeOptions options_;
  engine::BudgetPool budget_;
  TaskPool workers_;
  ServerMetrics metrics_;
  std::shared_ptr<CancelHub> hub_;

  mutable std::mutex mu_;
  std::condition_variable idle_cv_;  // signaled when a query finishes
  FairShareQueue queue_;
  std::map<uint64_t, std::shared_ptr<QueryState>> waiting_;  // queued, by id
  std::map<uint64_t, std::thread> drivers_;  // running, by query id
  std::vector<std::thread> reap_;  // finished, awaiting join
  int inflight_ = 0;
  uint64_t next_id_ = 1;
};

}  // namespace serve
}  // namespace blackbox

#endif  // BLACKBOX_SERVE_QUERY_SERVER_H_
