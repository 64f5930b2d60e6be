// Tests for the serving subsystem (DESIGN.md §2.4): the hierarchical
// BudgetPool, budget edge cases at the executor boundary, fair-share
// admission, spill-directory isolation, and the end-to-end differential
// oracle — concurrent queries through a QueryServer must produce outputs
// byte-identical to their solo runs while the global ledger records zero
// violations.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "api/optimized_program.h"
#include "engine/executor.h"
#include "engine/spill_manager.h"
#include "optimizer/plan_cache.h"
#include "record/spill_file.h"
#include "serve/admission.h"
#include "serve/metrics.h"
#include "serve/query_server.h"
#include "workloads/clickstream.h"
#include "workloads/textmining.h"
#include "workloads/tpch.h"

namespace blackbox {
namespace {

/// Small batches keep the bounded ledger slack small (one batch of the
/// widest workload records, rounded up) — same constants as the spill
/// equivalence oracle.
constexpr size_t kBatchCapacity = 16;
constexpr double kSlackBytes = 8 << 10;

std::string OutputBytes(const DataSet& ds) {
  // Exact record order: the engine gathers in partition index order, so the
  // same plan must produce byte-identical output served or solo.
  std::string out;
  for (size_t i = 0; i < ds.size(); ++i) EncodeRecord(ds.record(i), &out);
  return out;
}

StatusOr<api::OptimizedProgram> Optimize(const workloads::Workload& w,
                                         const engine::ExecOptions& exec) {
  api::ScaProvider provider;
  api::OptimizeOptions options;
  options.exec = exec;
  api::SourceBindings sources;
  for (const auto& [id, data] : w.source_data) sources[id] = &data;
  return api::OptimizeFlow(w.flow, provider, options, sources);
}

engine::ExecOptions SmallExec(double budget_bytes) {
  engine::ExecOptions exec;
  exec.dop = 4;
  exec.batch_capacity = kBatchCapacity;
  exec.mem_budget_bytes = budget_bytes;
  return exec;
}

workloads::Workload SmallClickstream() {
  workloads::ClickstreamScale scale;
  scale.sessions = 600;
  scale.users = 80;
  return workloads::MakeClickstream(scale);
}

// --- BudgetPool -------------------------------------------------------------

TEST(BudgetPoolTest, CarveReclaimAccounting) {
  engine::BudgetPool pool(1000);
  EXPECT_DOUBLE_EQ(pool.capacity_bytes(), 1000);
  ASSERT_TRUE(pool.Carve(400).ok());
  ASSERT_TRUE(pool.Carve(400).ok());
  EXPECT_DOUBLE_EQ(pool.carved_bytes(), 800);
  EXPECT_DOUBLE_EQ(pool.carved_high_water(), 800);

  // Exhausted: the third carve would exceed capacity.
  Status rejected = pool.Carve(400);
  EXPECT_EQ(rejected.code(), Status::Code::kOutOfRange);
  EXPECT_DOUBLE_EQ(pool.carved_bytes(), 800);

  pool.Reclaim(400);
  EXPECT_DOUBLE_EQ(pool.carved_bytes(), 400);
  // Reclaim frees room again; the high-water mark keeps the peak.
  ASSERT_TRUE(pool.Carve(500).ok());
  EXPECT_DOUBLE_EQ(pool.carved_bytes(), 900);
  EXPECT_DOUBLE_EQ(pool.carved_high_water(), 900);
}

TEST(BudgetPoolTest, ChildCarvesNeverExceedParentCapacity) {
  engine::BudgetPool pool(1000);
  ASSERT_TRUE(pool.Carve(1000).ok());  // exactly full is fine
  EXPECT_EQ(pool.Carve(1).code(), Status::Code::kOutOfRange);
  EXPECT_LE(pool.carved_bytes(), pool.capacity_bytes());
}

TEST(BudgetPoolTest, RejectsNonPositiveCarve) {
  engine::BudgetPool pool(1000);
  EXPECT_EQ(pool.Carve(0).code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(pool.Carve(-5).code(), Status::Code::kInvalidArgument);
}

TEST(BudgetPoolTest, LiveTrackingAndViolations) {
  engine::BudgetPool pool(100);
  pool.AddLive(60);
  pool.AddLive(30);
  EXPECT_EQ(pool.live_bytes(), 90);
  EXPECT_EQ(pool.live_high_water(), 90);
  EXPECT_EQ(pool.violations(), 0);

  pool.AddLive(110);  // 200 live against a capacity of 100
  EXPECT_EQ(pool.live_high_water(), 200);
  EXPECT_GE(pool.violations(), 1);

  pool.AddLive(-200);
  EXPECT_EQ(pool.live_bytes(), 0);
  EXPECT_EQ(pool.live_high_water(), 200);  // high water is sticky
}

// A real spilling execution with a ledger parent attached: the pool's
// measured live high-water must be positive (the ledgers really report) and
// bounded by dop × (budget + slack) (the carve bound the serving layer
// relies on), with zero violations when capacity equals that bound.
TEST(BudgetPoolTest, HierarchicalAccountingDuringExecution) {
  workloads::Workload w = SmallClickstream();
  engine::ExecOptions exec = SmallExec(8 << 10);
  const double bound = exec.dop * (exec.mem_budget_bytes + kSlackBytes);
  engine::BudgetPool pool(bound);
  exec.ledger_parent = &pool;

  StatusOr<api::OptimizedProgram> program = Optimize(w, exec);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  engine::ExecStats stats;
  StatusOr<DataSet> out = program->RunWith(0, exec, &stats);
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  EXPECT_GT(stats.disk_bytes, 0) << "expected the 8 KB budget to spill";
  EXPECT_GT(pool.live_high_water(), 0);
  EXPECT_LE(static_cast<double>(pool.live_high_water()), bound);
  EXPECT_EQ(pool.violations(), 0);
  // Execution finished: every reservation was released back to the parent.
  EXPECT_EQ(pool.live_bytes(), 0);
}

// --- Budget edge cases at the executor boundary -----------------------------

TEST(BudgetEdgeCaseTest, ZeroAndNegativeBudgetsAreCleanErrors) {
  workloads::Workload w = SmallClickstream();
  StatusOr<api::OptimizedProgram> program = Optimize(w, SmallExec(1 << 20));
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  for (double budget : {0.0, -1.0}) {
    StatusOr<DataSet> out = program->RunWith(0, SmallExec(budget));
    ASSERT_FALSE(out.ok()) << "budget " << budget << " must be rejected";
    EXPECT_EQ(out.status().code(), Status::Code::kInvalidArgument);
  }
}

TEST(BudgetEdgeCaseTest, BudgetSmallerThanOneBatchDegradesGracefully) {
  workloads::Workload w = SmallClickstream();
  engine::ExecOptions roomy = SmallExec(1 << 26);
  StatusOr<api::OptimizedProgram> program = Optimize(w, roomy);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  StatusOr<DataSet> reference = program->RunWith(0, roomy);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  // 256 bytes holds a handful of records — far less than one 16-record
  // batch. The run must still complete (spilling roughly per budget-sized
  // slice) with byte-identical output, never assert or loop.
  engine::ExecStats stats;
  StatusOr<DataSet> tiny = program->RunWith(0, SmallExec(256), &stats);
  ASSERT_TRUE(tiny.ok()) << tiny.status().ToString();
  EXPECT_GT(stats.disk_bytes, 0);
  EXPECT_EQ(OutputBytes(*tiny), OutputBytes(*reference));
}

// --- FairShareQueue ---------------------------------------------------------

TEST(FairShareQueueTest, FifoWithinOneTenant) {
  serve::FairShareQueue q(8);
  ASSERT_TRUE(q.Enqueue("a", 1).ok());
  ASSERT_TRUE(q.Enqueue("a", 2).ok());
  ASSERT_TRUE(q.Enqueue("a", 3).ok());
  for (uint64_t expect : {1, 2, 3}) {
    auto cand = q.Peek();
    ASSERT_TRUE(cand.has_value());
    EXPECT_EQ(cand->query_id, expect);
    q.PopAdmitted(cand->tenant);
  }
  EXPECT_FALSE(q.Peek().has_value());
}

TEST(FairShareQueueTest, LeastServedTenantGoesFirst) {
  serve::FairShareQueue q(8);
  ASSERT_TRUE(q.Enqueue("a", 1).ok());
  ASSERT_TRUE(q.Enqueue("a", 2).ok());
  ASSERT_TRUE(q.Enqueue("b", 3).ok());

  // Tie on (inflight, admitted) breaks on tenant name: "a" first.
  auto first = q.Peek();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->tenant, "a");
  q.PopAdmitted("a");

  // "a" now has one in flight; "b" is least served.
  auto second = q.Peek();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->tenant, "b");
  EXPECT_EQ(second->query_id, 3u);
  q.PopAdmitted("b");

  // Both have one in flight and one lifetime admission; back to "a".
  auto third = q.Peek();
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->query_id, 2u);

  // A completion for "b" does not change the candidate ("a" ties on
  // inflight 1... no: "a" has inflight 1, "b" inflight 0 after complete —
  // but "a" is the only tenant with waiting work, so it stays the head).
  q.OnComplete("b");
  auto still = q.Peek();
  ASSERT_TRUE(still.has_value());
  EXPECT_EQ(still->query_id, 2u);
}

TEST(FairShareQueueTest, LongRunShareBalancesAcrossTenants) {
  serve::FairShareQueue q(16);
  // "a" accrues 5 lifetime admissions while staying active — one query is
  // always waiting, so its lane is never idle and never garbage-collected.
  ASSERT_TRUE(q.Enqueue("a", 1).ok());
  for (uint64_t id = 2; id <= 6; ++id) {
    ASSERT_TRUE(q.Enqueue("a", id).ok());
    auto cand = q.Peek();
    ASSERT_TRUE(cand.has_value());
    q.PopAdmitted(cand->tenant);
    q.OnComplete(cand->tenant);
  }
  // A newcomer "b" must be preferred over the 5-admission "a" even though
  // neither has anything in flight right now.
  ASSERT_TRUE(q.Enqueue("b", 11).ok());
  auto cand = q.Peek();
  ASSERT_TRUE(cand.has_value());
  EXPECT_EQ(cand->tenant, "b");
}

TEST(FairShareQueueTest, IdleLanesAreCollected) {
  serve::FairShareQueue q(16);
  // A churn of one-shot tenants must not accumulate lanes forever — this
  // used to leak one map entry per tenant name for the queue's whole life.
  for (int i = 0; i < 50; ++i) {
    std::string tenant = "t" + std::to_string(i);
    ASSERT_TRUE(q.Enqueue(tenant, 100 + static_cast<uint64_t>(i)).ok());
    auto cand = q.Peek();
    ASSERT_TRUE(cand.has_value());
    EXPECT_EQ(cand->tenant, tenant);
    q.PopAdmitted(tenant);
    q.OnComplete(tenant);
  }
  EXPECT_EQ(q.num_lanes(), 0u);

  // Remove() collects too: a cancelled sole waiter leaves no lane behind.
  ASSERT_TRUE(q.Enqueue("x", 1).ok());
  EXPECT_EQ(q.num_lanes(), 1u);
  EXPECT_TRUE(q.Remove("x", 1));
  EXPECT_EQ(q.num_lanes(), 0u);
  EXPECT_EQ(q.size(), 0u);
  // Removing an id that is not waiting is a rejected no-op.
  EXPECT_FALSE(q.Remove("x", 1));

  // A lane with work in flight is NOT collected even with nothing waiting:
  // its inflight count is live fair-share state.
  ASSERT_TRUE(q.Enqueue("y", 2).ok());
  EXPECT_TRUE(q.PopAdmitted("y"));
  EXPECT_EQ(q.num_lanes(), 1u);
  EXPECT_TRUE(q.OnComplete("y"));
  EXPECT_EQ(q.num_lanes(), 0u);
}

TEST(FairShareQueueTest, CollectedLaneHistorySurvivesAsFloor) {
  serve::FairShareQueue q(16);
  // "a" gets 3 admissions, then goes idle and its lane is collected.
  for (uint64_t id = 1; id <= 3; ++id) {
    ASSERT_TRUE(q.Enqueue("a", id).ok());
    EXPECT_TRUE(q.PopAdmitted("a"));
    EXPECT_TRUE(q.OnComplete("a"));
  }
  EXPECT_EQ(q.num_lanes(), 0u);
  // Both a returning "a" and a brand-new "b" start at the floor the erased
  // lane left behind: collection must not hand "a" a fresh-tenant advantage
  // over tenants admitted after it, so the two tie and the name order
  // decides, exactly as for two fresh tenants.
  ASSERT_TRUE(q.Enqueue("b", 10).ok());
  ASSERT_TRUE(q.Enqueue("a", 11).ok());
  auto cand = q.Peek();
  ASSERT_TRUE(cand.has_value());
  EXPECT_EQ(cand->tenant, "a");
  EXPECT_TRUE(q.PopAdmitted("a"));
  // After one admission "a" is behind again — the floor ratchets forward.
  auto next = q.Peek();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->tenant, "b");
}

TEST(FairShareQueueTest, BoundedQueueRejects) {
  serve::FairShareQueue q(2);
  ASSERT_TRUE(q.Enqueue("a", 1).ok());
  ASSERT_TRUE(q.Enqueue("b", 2).ok());
  EXPECT_EQ(q.Enqueue("c", 3).code(), Status::Code::kOutOfRange);
  EXPECT_EQ(q.size(), 2u);
  // Admission makes room again.
  auto cand = q.Peek();
  ASSERT_TRUE(cand.has_value());
  q.PopAdmitted(cand->tenant);
  EXPECT_TRUE(q.Enqueue("c", 3).ok());
}

TEST(FairShareQueueTest, MismatchedPopAndCompleteAreRejectedNoOps) {
  serve::FairShareQueue q(4);
  ASSERT_TRUE(q.Enqueue("a", 1).ok());

  // Popping a tenant with nothing waiting (unknown or drained) must refuse
  // without touching the queue — these used to be assert-only guards that
  // compiled out in Release and corrupted size_/inflight forever.
  EXPECT_FALSE(q.PopAdmitted("ghost"));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.PopAdmitted("a"));
  EXPECT_EQ(q.size(), 0u);
  EXPECT_FALSE(q.PopAdmitted("a")) << "lane is drained; a second pop must fail";
  EXPECT_EQ(q.size(), 0u);

  // Keep a query waiting in "a"'s lane across the completion below, so the
  // lane is not garbage-collected and its admission history stays directly
  // observable (a collected lane's history folds into the shared floor —
  // covered by CollectedLaneHistorySurvivesAsFloor).
  ASSERT_TRUE(q.Enqueue("a", 2).ok());

  // One completion succeeds; a double-complete (and a completion for a
  // tenant that never ran) must not underflow the in-flight counter...
  EXPECT_TRUE(q.OnComplete("a"));
  EXPECT_FALSE(q.OnComplete("a"));
  EXPECT_FALSE(q.OnComplete("ghost"));

  // ...which fair-share ordering would feel immediately: an underflowed
  // lane would win Peek() forever. After the failed double-complete, "a"
  // (admitted once) must NOT beat a fresh tenant.
  ASSERT_TRUE(q.Enqueue("b", 3).ok());
  auto cand = q.Peek();
  ASSERT_TRUE(cand.has_value());
  EXPECT_EQ(cand->tenant, "b");
}

// --- Metrics ----------------------------------------------------------------

TEST(MetricsTest, SummarizeMatchesIndividualQueries) {
  serve::LatencyRecorder rec;
  serve::LatencySummary empty = rec.Summarize();
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.max, 0.0);
  // Deliberately unsorted input; Summarize's single sorted pass must agree
  // with the one-off query methods on every statistic.
  for (double v : {0.9, 0.1, 0.5, 0.3, 0.7}) rec.Record(v);
  serve::LatencySummary s = rec.Summarize();
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.p50, rec.Percentile(50));
  EXPECT_DOUBLE_EQ(s.p99, rec.Percentile(99));
  EXPECT_DOUBLE_EQ(s.mean, rec.Mean());
  EXPECT_DOUBLE_EQ(s.max, rec.Max());
  EXPECT_DOUBLE_EQ(s.p50, 0.5);
  EXPECT_DOUBLE_EQ(s.p99, 0.9);
}

TEST(MetricsTest, PercentilesAndCounters) {
  serve::LatencyRecorder rec;
  for (int i = 1; i <= 100; ++i) rec.Record(i / 100.0);
  EXPECT_DOUBLE_EQ(rec.Percentile(50), 0.50);
  EXPECT_DOUBLE_EQ(rec.Percentile(99), 0.99);
  EXPECT_DOUBLE_EQ(rec.Max(), 1.0);

  serve::ServerMetrics metrics;
  metrics.OnSubmitted();
  metrics.OnSubmitted();
  metrics.OnRejected();
  metrics.OnAdmitted();
  metrics.OnQueueDepth(3);
  metrics.OnQueueDepth(1);
  metrics.OnFinished("scan", Status::Code::kOk, 0.5, 1.0);
  metrics.OnFinished("scan", Status::Code::kInternal, 0.1, 0.2);
  // A query unwound mid-execution records latency (it occupied the server)
  // but routes to its own counter, not failed.
  metrics.OnFinished("scan", Status::Code::kCancelled, 0.05, 0.3);
  metrics.OnFinished("scan", Status::Code::kDeadlineExceeded, 0.05, 0.4);
  // Cancelled while still queued: counted, but no latency sample — the
  // query never occupied the server, so its queue wait must not pollute the
  // class percentiles.
  metrics.OnCancelledBeforeAdmission(Status::Code::kCancelled);
  metrics.OnCancelledBeforeAdmission(Status::Code::kDeadlineExceeded);
  serve::MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.submitted, 2);
  EXPECT_EQ(snap.rejected, 1);
  EXPECT_EQ(snap.admitted, 1);
  EXPECT_EQ(snap.completed, 1);
  EXPECT_EQ(snap.failed, 1);
  EXPECT_EQ(snap.cancelled, 2);
  EXPECT_EQ(snap.deadline_exceeded, 2);
  EXPECT_EQ(snap.queue_high_water, 3u);
  ASSERT_EQ(snap.total_latency.count("scan"), 1u);
  EXPECT_EQ(snap.total_latency.at("scan").count, 4u);
  EXPECT_DOUBLE_EQ(snap.total_latency.at("scan").max, 1.0);
}

TEST(MetricsTest, MaxHandlesNegativeSamples) {
  serve::LatencyRecorder rec;
  EXPECT_DOUBLE_EQ(rec.Max(), 0.0);  // documented empty behavior
  // An all-negative sample set must return its true (negative) maximum —
  // the old fold from 0 reported 0 for any such set.
  rec.Record(-3.0);
  rec.Record(-1.5);
  rec.Record(-2.0);
  EXPECT_DOUBLE_EQ(rec.Max(), -1.5);
  // The sorted cache stays coherent across interleaved records and queries.
  rec.Record(2.0);
  EXPECT_DOUBLE_EQ(rec.Max(), 2.0);
  EXPECT_DOUBLE_EQ(rec.Percentile(0), -3.0);
  EXPECT_DOUBLE_EQ(rec.Percentile(100), 2.0);
}

// --- Spill-directory isolation ----------------------------------------------

TEST(SpillDirectoryTest, SameTagStillUniqueAndSanitized) {
  StatusOr<SpillDirectory> a = SpillDirectory::Create("", "tenant/../q1 x");
  StatusOr<SpillDirectory> b = SpillDirectory::Create("", "tenant/../q1 x");
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  // Uniqueness never depends on the tag.
  EXPECT_NE(a->path(), b->path());
  // The tag cannot escape the parent: no separators survive sanitization.
  std::string name = std::filesystem::path(a->path()).filename().string();
  EXPECT_EQ(name.find('/'), std::string::npos);
  EXPECT_EQ(name.find(".."), std::string::npos);
  EXPECT_EQ(name.find(' '), std::string::npos);
  EXPECT_NE(name.find("tenant"), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(a->path()));
  EXPECT_TRUE(std::filesystem::exists(b->path()));
}

// --- QueryServer ------------------------------------------------------------

TEST(QueryServerTest, RejectsMalformedAndOversizedRequests) {
  serve::ServeOptions options;
  options.global_budget_bytes = 1 << 20;
  options.num_threads = 2;
  serve::QueryServer server(options);

  serve::QueryRequest no_program;
  EXPECT_EQ(server.Submit(std::move(no_program)).status().code(),
            Status::Code::kInvalidArgument);

  workloads::Workload w = SmallClickstream();
  engine::ExecOptions exec = SmallExec(8 << 10);
  StatusOr<api::OptimizedProgram> program = Optimize(w, exec);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  serve::QueryRequest zero_budget;
  zero_budget.program = &*program;
  zero_budget.exec = SmallExec(0);
  EXPECT_EQ(server.Submit(std::move(zero_budget)).status().code(),
            Status::Code::kInvalidArgument);

  serve::QueryRequest bad_index;
  bad_index.program = &*program;
  bad_index.plan_index = program->ranked().size();
  bad_index.exec = exec;
  EXPECT_EQ(server.Submit(std::move(bad_index)).status().code(),
            Status::Code::kInvalidArgument);

  // A carve that can never fit the global budget is rejected up front
  // instead of waiting forever. Oversized via dop: the estimate-sized carve
  // can shrink a huge per-instance budget down to the plan's estimated
  // peak, but never below the floor, so a huge dop still overflows.
  serve::QueryRequest oversized;
  oversized.program = &*program;
  oversized.exec = SmallExec(options.global_budget_bytes);
  oversized.exec.dop = 4096;
  EXPECT_EQ(server.Submit(std::move(oversized)).status().code(),
            Status::Code::kOutOfRange);

  EXPECT_EQ(server.metrics().Snapshot().rejected, 4);
}

TEST(QueryServerTest, OverAdmissionRejectsWhenQueueFull) {
  // No execution slots and no waiting room: every submission bounces.
  serve::ServeOptions options;
  options.max_inflight = 0;
  options.max_queued = 0;
  options.num_threads = 1;
  serve::QueryServer server(options);

  workloads::Workload w = SmallClickstream();
  engine::ExecOptions exec = SmallExec(8 << 10);
  StatusOr<api::OptimizedProgram> program = Optimize(w, exec);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  serve::QueryRequest request;
  request.program = &*program;
  request.exec = exec;
  EXPECT_EQ(server.Submit(std::move(request)).status().code(),
            Status::Code::kOutOfRange);
  serve::MetricsSnapshot snap = server.metrics().Snapshot();
  EXPECT_EQ(snap.rejected, 1);
  EXPECT_EQ(snap.admitted, 0);
}

// --- Cancellation and deadlines ---------------------------------------------

TEST(QueryServerTest, CancelBeforeAdmissionFreesQueueSlot) {
  // No execution slots: submissions queue and stay queued, so Cancel() hits
  // a query that never started.
  serve::ServeOptions options;
  options.max_inflight = 0;
  options.max_queued = 2;
  options.num_threads = 1;
  serve::QueryServer server(options);

  workloads::Workload w = SmallClickstream();
  engine::ExecOptions exec = SmallExec(8 << 10);
  StatusOr<api::OptimizedProgram> program = Optimize(w, exec);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  auto submit = [&]() {
    serve::QueryRequest request;
    request.program = &*program;
    request.exec = exec;
    return server.Submit(std::move(request));
  };
  StatusOr<std::shared_ptr<serve::QueryHandle>> first = submit();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE((*first)->Done());

  (*first)->Cancel();
  const serve::QueryResult& result = (*first)->Wait();
  EXPECT_EQ(result.status.code(), Status::Code::kCancelled);
  EXPECT_EQ(result.output.size(), 0u);

  // The queue slot is free again: with max_queued = 2, two more
  // submissions must be accepted, not rejected.
  StatusOr<std::shared_ptr<serve::QueryHandle>> second = submit();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  StatusOr<std::shared_ptr<serve::QueryHandle>> third = submit();
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  (*second)->Cancel();
  (*third)->Cancel();
  EXPECT_EQ((*second)->Wait().status.code(), Status::Code::kCancelled);
  EXPECT_EQ((*third)->Wait().status.code(), Status::Code::kCancelled);

  // Drain must not hang on cancelled queued queries, and nothing was ever
  // admitted or carved.
  server.Drain();
  serve::MetricsSnapshot snap = server.metrics().Snapshot();
  EXPECT_EQ(snap.submitted, 3);
  EXPECT_EQ(snap.cancelled, 3);
  EXPECT_EQ(snap.admitted, 0);
  EXPECT_EQ(snap.failed, 0);
  // Never-admitted queries record no latency samples.
  EXPECT_EQ(snap.total_latency.count("default"), 0u);
  EXPECT_DOUBLE_EQ(server.budget_pool().carved_bytes(), 0);

  // Cancelling an already-finished query is an idempotent no-op.
  (*first)->Cancel();
  EXPECT_EQ((*first)->Wait().status.code(), Status::Code::kCancelled);
}

TEST(QueryServerTest, DeadlineAlreadyExpiredAtSubmit) {
  serve::ServeOptions options;
  options.num_threads = 2;
  serve::QueryServer server(options);

  workloads::Workload w = SmallClickstream();
  engine::ExecOptions exec = SmallExec(8 << 10);
  StatusOr<api::OptimizedProgram> program = Optimize(w, exec);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  serve::QueryRequest request;
  request.program = &*program;
  request.exec = exec;
  request.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  StatusOr<std::shared_ptr<serve::QueryHandle>> handle =
      server.Submit(std::move(request));
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  const serve::QueryResult& result = (*handle)->Wait();
  EXPECT_EQ(result.status.code(), Status::Code::kDeadlineExceeded);

  server.Drain();
  serve::MetricsSnapshot snap = server.metrics().Snapshot();
  EXPECT_EQ(snap.deadline_exceeded, 1);
  EXPECT_EQ(snap.admitted, 0);
  EXPECT_EQ(snap.failed, 0);
  EXPECT_DOUBLE_EQ(server.budget_pool().carved_bytes(), 0);
}

// A query cancelled in the middle of spilling must unwind completely: the
// Cancelled status comes back, the full carve is reclaimed, every ledger
// reservation flows back to the pool, the tagged spill directory is gone,
// and the pool records zero violations. The cancel point is deterministic:
// cancel_after_spill_bytes fires the token inside the first spill write.
TEST(QueryServerTest, CancelMidSpillReclaimsCarveAndRemovesSpillDir) {
  StatusOr<SpillDirectory> root = SpillDirectory::Create("", "cancel-test");
  ASSERT_TRUE(root.ok()) << root.status().ToString();

  workloads::Workload w = SmallClickstream();
  engine::ExecOptions exec = SmallExec(8 << 10);  // spills at this budget
  StatusOr<api::OptimizedProgram> program = Optimize(w, exec);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  serve::ServeOptions options;
  options.max_inflight = 1;
  options.num_threads = 2;
  options.per_instance_slack_bytes = kSlackBytes;
  options.spill_root = root->path();
  serve::QueryServer server(options);

  serve::QueryRequest request;
  request.program = &*program;
  request.exec = exec;
  request.exec.cancel_after_spill_bytes = 1;  // token fires mid-first-spill
  StatusOr<std::shared_ptr<serve::QueryHandle>> handle =
      server.Submit(std::move(request));
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  const serve::QueryResult& result = (*handle)->Wait();
  EXPECT_EQ(result.status.code(), Status::Code::kCancelled)
      << result.status.ToString();
  server.Drain();

  const engine::BudgetPool& pool = server.budget_pool();
  EXPECT_DOUBLE_EQ(pool.carved_bytes(), 0) << "carve not fully reclaimed";
  EXPECT_EQ(pool.live_bytes(), 0) << "ledger reservations leaked";
  EXPECT_EQ(pool.violations(), 0);
  // The query's tagged spill directory removed itself during the unwind.
  EXPECT_TRUE(std::filesystem::is_empty(root->path()))
      << "cancelled query left spill files behind";
  serve::MetricsSnapshot snap = server.metrics().Snapshot();
  EXPECT_EQ(snap.cancelled, 1);
  EXPECT_EQ(snap.failed, 0);
}

// Cancellation must never bleed into neighbors: queries sharing the server
// with a cancelled spilling query still produce byte-identical output to
// their solo runs.
TEST(QueryServerTest, SurvivorsAreByteIdenticalNextToCancelledQuery) {
  workloads::Workload w = SmallClickstream();
  engine::ExecOptions exec = SmallExec(8 << 10);
  StatusOr<api::OptimizedProgram> program = Optimize(w, exec);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  StatusOr<DataSet> solo = program->RunWith(0, exec);
  ASSERT_TRUE(solo.ok()) << solo.status().ToString();
  const std::string solo_bytes = OutputBytes(*solo);

  serve::ServeOptions options;
  options.max_inflight = 3;
  options.num_threads = 4;
  options.per_instance_slack_bytes = kSlackBytes;
  const double carve =
      exec.dop * (exec.mem_budget_bytes + options.per_instance_slack_bytes);
  options.global_budget_bytes = carve * options.max_inflight;
  serve::QueryServer server(options);

  std::vector<std::shared_ptr<serve::QueryHandle>> handles;
  for (int i = 0; i < 3; ++i) {
    serve::QueryRequest request;
    request.program = &*program;
    request.tenant = "t" + std::to_string(i);
    request.exec = exec;
    if (i == 1) request.exec.cancel_after_spill_bytes = 1;
    StatusOr<std::shared_ptr<serve::QueryHandle>> handle =
        server.Submit(std::move(request));
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    handles.push_back(std::move(handle).value());
  }
  for (int i = 0; i < 3; ++i) {
    const serve::QueryResult& result = handles[static_cast<size_t>(i)]->Wait();
    if (i == 1) {
      EXPECT_EQ(result.status.code(), Status::Code::kCancelled);
      continue;
    }
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(OutputBytes(result.output), solo_bytes)
        << "query " << i << " next to a cancelled neighbor diverged";
  }
  server.Drain();
  EXPECT_EQ(server.budget_pool().violations(), 0);
  EXPECT_DOUBLE_EQ(server.budget_pool().carved_bytes(), 0);
  EXPECT_EQ(server.budget_pool().live_bytes(), 0);
}

// Regression: driver threads used to accumulate in a vector joined only by
// Drain(), so a long-lived server leaked one OS thread per admitted query.
// Finished drivers are now reaped on the next Submit/Drain, keeping the
// live count bounded by max_inflight plus one sweep of lag.
TEST(QueryServerTest, DriverThreadsAreReapedEagerly) {
  serve::ServeOptions options;
  options.max_inflight = 1;
  options.num_threads = 2;
  serve::QueryServer server(options);

  workloads::Workload w = SmallClickstream();
  engine::ExecOptions exec = SmallExec(1 << 20);  // roomy: fast queries
  StatusOr<api::OptimizedProgram> program = Optimize(w, exec);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  constexpr int kQueries = 6;
  for (int i = 0; i < kQueries; ++i) {
    serve::QueryRequest request;
    request.program = &*program;
    request.exec = exec;
    StatusOr<std::shared_ptr<serve::QueryHandle>> handle =
        server.Submit(std::move(request));
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    ASSERT_TRUE((*handle)->Wait().status.ok());
    // This query's driver may still await the next sweep, but drivers from
    // earlier iterations were joined by this iteration's Submit.
    EXPECT_LE(server.live_drivers(), 2u)
        << "driver threads are accumulating instead of being reaped";
  }
  server.Drain();
  EXPECT_EQ(server.live_drivers(), 0u);
}

// The end-to-end differential oracle: three workloads, two concurrent
// submissions each, spilling budgets, one shared worker pool and global
// ledger — every served output must be byte-identical to the solo run of
// the same plan, all reservations must flow back, and the global pool must
// record zero violations.
TEST(QueryServerTest, ConcurrentExecutionMatchesSoloByteForByte) {
  struct Entry {
    std::string tenant;
    workloads::Workload workload;
    api::OptimizedProgram program;         // cold optimization
    api::OptimizedProgram cached_program;  // plan-cache hit of the same key
    std::string solo_bytes;
  };
  optimizer::PlanCache::Global().Clear();
  std::vector<Entry> entries(3);
  entries[0].tenant = "analytics";
  {
    workloads::TpchScale scale;
    scale.lineitems = 1200;
    scale.orders = 300;
    scale.customers = 60;
    scale.suppliers = 12;
    scale.nations = 8;
    entries[0].workload = workloads::MakeTpchQ7(scale);
  }
  entries[1].tenant = "mining";
  {
    workloads::TextMiningScale scale;
    scale.documents = 500;
    entries[1].workload = workloads::MakeTextMining(scale);
  }
  entries[2].tenant = "web";
  entries[2].workload = SmallClickstream();

  engine::ExecOptions exec = SmallExec(8 << 10);
  for (Entry& e : entries) {
    StatusOr<api::OptimizedProgram> program = Optimize(e.workload, exec);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    e.program = std::move(program).value();
    EXPECT_FALSE(e.program.from_plan_cache());
    // Re-optimizing the identical pipeline must be a pure cache hit: no
    // annotation, no enumeration, no costing — just the shared plans.
    const uint64_t hits_before = optimizer::PlanCache::Global().stats().hits;
    StatusOr<api::OptimizedProgram> cached = Optimize(e.workload, exec);
    ASSERT_TRUE(cached.ok()) << cached.status().ToString();
    e.cached_program = std::move(cached).value();
    EXPECT_TRUE(e.cached_program.from_plan_cache());
    EXPECT_EQ(optimizer::PlanCache::Global().stats().hits, hits_before + 1);
    StatusOr<DataSet> solo = e.program.RunWith(0, exec);
    ASSERT_TRUE(solo.ok()) << solo.status().ToString();
    e.solo_bytes = OutputBytes(*solo);
  }

  serve::ServeOptions options;
  options.max_inflight = 4;
  options.num_threads = 4;
  options.per_instance_slack_bytes = kSlackBytes;
  const double carve =
      exec.dop * (exec.mem_budget_bytes + options.per_instance_slack_bytes);
  options.global_budget_bytes = carve * options.max_inflight;

  constexpr int kRoundsPerEntry = 2;
  serve::QueryServer server(options);
  std::vector<std::shared_ptr<serve::QueryHandle>> handles;
  std::vector<const Entry*> owners;
  for (int round = 0; round < kRoundsPerEntry; ++round) {
    for (const Entry& e : entries) {
      serve::QueryRequest request;
      // Odd rounds serve the cache-hit program: its output must be
      // byte-identical to the cold program's under the same concurrency.
      request.program = round % 2 == 0 ? &e.program : &e.cached_program;
      request.tenant = e.tenant;
      request.workload_class = e.tenant;
      request.exec = exec;
      StatusOr<std::shared_ptr<serve::QueryHandle>> handle =
          server.Submit(std::move(request));
      ASSERT_TRUE(handle.ok()) << handle.status().ToString();
      handles.push_back(std::move(handle).value());
      owners.push_back(&e);
    }
  }
  for (size_t i = 0; i < handles.size(); ++i) {
    const serve::QueryResult& result = handles[i]->Wait();
    ASSERT_TRUE(result.status.ok())
        << owners[i]->tenant << ": " << result.status.ToString();
    EXPECT_EQ(OutputBytes(result.output), owners[i]->solo_bytes)
        << owners[i]->tenant << " query " << result.query_id
        << ": served output differs from the solo run";
  }
  server.Drain();

  const engine::BudgetPool& pool = server.budget_pool();
  EXPECT_EQ(pool.violations(), 0);
  EXPECT_GT(pool.live_high_water(), 0);
  EXPECT_LE(static_cast<double>(pool.live_high_water()),
            pool.capacity_bytes());
  // Completion reclaimed every carve and released every reservation.
  EXPECT_DOUBLE_EQ(pool.carved_bytes(), 0);
  EXPECT_EQ(pool.live_bytes(), 0);
  // The admission lifecycle adds up.
  serve::MetricsSnapshot snap = server.metrics().Snapshot();
  const int total = kRoundsPerEntry * static_cast<int>(entries.size());
  EXPECT_EQ(snap.submitted, total);
  EXPECT_EQ(snap.admitted, total);
  EXPECT_EQ(snap.completed, total);
  EXPECT_EQ(snap.failed, 0);
  EXPECT_EQ(snap.rejected, 0);
  // Plan-cache provenance counters: one round of cold programs, one round
  // of cache-hit programs per entry.
  EXPECT_EQ(snap.plan_cache_hits, static_cast<int>(entries.size()));
  EXPECT_EQ(snap.plan_cache_misses, static_cast<int>(entries.size()));
}

}  // namespace
}  // namespace blackbox
