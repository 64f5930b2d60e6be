#include "serve/query_server.h"

#include <algorithm>
#include <utility>

namespace blackbox {
namespace serve {

// --- QueryHandle ------------------------------------------------------------

const QueryResult& QueryHandle::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return done_; });
  return result_;
}

bool QueryHandle::Done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_;
}

void QueryHandle::Fulfill(QueryResult result) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    result_ = std::move(result);
    done_ = true;
  }
  cv_.notify_all();
}

void QueryHandle::Cancel() {
  // Fire the token first: an executing query starts unwinding even if the
  // server is gone and the hub below is dead.
  if (token_) token_->Cancel();
  if (!hub_) return;
  std::lock_guard<std::mutex> lock(hub_->mu);
  if (hub_->server != nullptr) hub_->server->OnCancel(id_);
}

// --- QueryServer ------------------------------------------------------------

QueryServer::QueryServer(ServeOptions options)
    : options_(std::move(options)),
      budget_(options_.global_budget_bytes),
      workers_(options_.num_threads),
      hub_(std::make_shared<CancelHub>()),
      queue_(options_.max_queued) {
  hub_->server = this;
}

QueryServer::~QueryServer() {
  Drain();
  // Outstanding handles may outlive the server; from here their Cancel()
  // degrades to a pure token fire instead of calling into freed memory.
  std::lock_guard<std::mutex> lock(hub_->mu);
  hub_->server = nullptr;
}

double QueryServer::EffectiveBudgetBytes(const QueryRequest& request,
                                         const ServeOptions& /*options*/) {
  double budget = request.exec.mem_budget_bytes;
  if (request.program != nullptr) {
    double est = request.program->EstimatedPeakBytes(request.plan_index,
                                                     request.exec.dop);
    budget = std::min(budget, std::max(est, kMinEstimatedBudgetBytes));
  }
  return budget;
}

double QueryServer::CarveBytes(const QueryRequest& request,
                               const ServeOptions& options) {
  // Worst case the query's ledgers can reach: dop instances, each within
  // its (effective) budget plus the bounded overshoot slack (DESIGN.md
  // §2.3). Shrinking the budget to the optimizer's estimate keeps the
  // invariant: the ledgers enforce whatever budget the query runs with.
  return static_cast<double>(request.exec.dop) *
         (EffectiveBudgetBytes(request, options) +
          options.per_instance_slack_bytes);
}

StatusOr<std::shared_ptr<QueryHandle>> QueryServer::Submit(
    QueryRequest request) {
  metrics_.OnSubmitted();
  if (request.program == nullptr) {
    metrics_.OnRejected();
    return Status::InvalidArgument("query request has no program");
  }
  if (request.plan_index >= request.program->ranked().size()) {
    metrics_.OnRejected();
    return Status::InvalidArgument(
        "plan index " + std::to_string(request.plan_index) +
        " out of range (" + std::to_string(request.program->ranked().size()) +
        " ranked alternatives)");
  }
  if (!(request.exec.mem_budget_bytes > 0)) {
    metrics_.OnRejected();
    return Status::InvalidArgument(
        "query mem_budget_bytes must be positive, got " +
        std::to_string(request.exec.mem_budget_bytes));
  }
  if (request.exec.dop < 1) {
    metrics_.OnRejected();
    return Status::InvalidArgument("query dop must be >= 1, got " +
                                   std::to_string(request.exec.dop));
  }
  // Run with the effective (possibly estimate-shrunk) budget the carve was
  // sized for — carve and ledger enforcement must describe the same bytes.
  request.exec.mem_budget_bytes = EffectiveBudgetBytes(request, options_);
  double carve = CarveBytes(request, options_);
  if (carve > budget_.capacity_bytes()) {
    // Could never be admitted — waiting would deadlock the queue slot.
    metrics_.OnRejected();
    return Status::OutOfRange(
        "query needs a " + std::to_string(carve) +
        "-byte carve but the server's global budget is only " +
        std::to_string(budget_.capacity_bytes()) + " bytes");
  }
  metrics_.OnPlanCache(request.program->from_plan_cache());

  auto state = std::make_shared<QueryState>();
  state->request = std::move(request);
  state->handle = std::make_shared<QueryHandle>();
  state->cancel = std::make_shared<CancelToken>();
  if (state->request.deadline) {
    state->cancel->SetDeadline(*state->request.deadline);
  }
  state->carve_bytes = carve;
  state->submit_time = std::chrono::steady_clock::now();

  {
    std::lock_guard<std::mutex> lock(mu_);
    state->id = next_id_++;
    // Arm the handle before the queue can see the query: once Enqueue
    // succeeds, a concurrent Cancel() must find a fully-routed handle.
    state->handle->token_ = state->cancel;
    state->handle->hub_ = hub_;
    state->handle->id_ = state->id;
    Status queued = queue_.Enqueue(state->request.tenant, state->id);
    if (!queued.ok()) {
      metrics_.OnRejected();
      return queued;
    }
    waiting_[state->id] = state;
    metrics_.OnQueueDepth(queue_.size());
    AdmitLocked();
  }
  // Reap outside mu_: drivers finished since the last Submit/Drain are
  // joined here, so the live-thread count stays bounded by max_inflight
  // plus the sweep lag instead of growing for the server's whole life.
  ReapFinishedDrivers();
  return state->handle;
}

void QueryServer::AdmitLocked() {
  while (inflight_ < options_.max_inflight) {
    std::optional<AdmissionCandidate> candidate = queue_.Peek();
    if (!candidate) break;
    auto it = waiting_.find(candidate->query_id);
    std::shared_ptr<QueryState> query = it->second;
    // Cull a candidate whose token already fired (cancelled while queued,
    // or its deadline lapsed in the queue): it leaves its lane without
    // carving budget or consuming the slot, and the loop moves on to the
    // next candidate.
    Status alive = query->cancel->Check();
    if (!alive.ok()) {
      queue_.Remove(candidate->tenant, candidate->query_id);
      waiting_.erase(it);
      metrics_.OnCancelledBeforeAdmission(alive.code());
      QueryResult result;
      result.query_id = query->id;
      result.status = alive;
      result.total_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        query->submit_time)
              .count();
      query->handle->Fulfill(std::move(result));
      idle_cv_.notify_all();
      continue;
    }
    // Carve before committing the admission: on a full pool the candidate
    // stays queued (at its lane's head) until a completion reclaims bytes
    // and re-runs this loop.
    if (!budget_.Carve(query->carve_bytes).ok()) break;
    queue_.PopAdmitted(candidate->tenant);
    waiting_.erase(it);
    ++inflight_;
    metrics_.OnAdmitted();
    uint64_t id = query->id;
    drivers_.emplace(
        id, std::thread(&QueryServer::RunQuery, this, std::move(query)));
  }
}

void QueryServer::RunQuery(std::shared_ptr<QueryState> query) {
  auto exec_start = std::chrono::steady_clock::now();

  engine::ExecOptions exec = query->request.exec;
  exec.worker_pool = &workers_;
  exec.ledger_parent = &budget_;
  exec.spill_dir = options_.spill_root;
  exec.spill_tag =
      "q" + std::to_string(query->id) + "-" + query->request.tenant;
  exec.task_priority = query->request.priority;
  exec.cancel = query->cancel.get();

  QueryResult result;
  result.query_id = query->id;
  StatusOr<DataSet> out = query->request.program->RunWith(
      query->request.plan_index, exec, &result.stats);
  auto exec_end = std::chrono::steady_clock::now();
  if (out.ok()) {
    result.output = std::move(out).value();
  } else {
    result.status = out.status();
  }
  result.queue_seconds =
      std::chrono::duration<double>(exec_start - query->submit_time).count();
  result.exec_seconds =
      std::chrono::duration<double>(exec_end - exec_start).count();
  result.total_seconds =
      std::chrono::duration<double>(exec_end - query->submit_time).count();

  metrics_.OnFinished(query->request.workload_class, result.status.code(),
                      result.exec_seconds, result.total_seconds);
  {
    std::lock_guard<std::mutex> lock(mu_);
    budget_.Reclaim(query->carve_bytes);
    queue_.OnComplete(query->request.tenant);
    --inflight_;
    // Retire this driver's own thread handle into the reap list — the last
    // mu_-protected act, so once inflight_ reads 0 under mu_ every finished
    // driver is already reapable. The handle is just moved, never joined
    // here (a thread cannot join itself).
    auto self = drivers_.find(query->id);
    if (self != drivers_.end()) {
      reap_.push_back(std::move(self->second));
      drivers_.erase(self);
    }
    AdmitLocked();
  }
  idle_cv_.notify_all();
  query->handle->Fulfill(std::move(result));
}

void QueryServer::OnCancel(uint64_t id) {
  std::shared_ptr<QueryState> query;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = waiting_.find(id);
    // Not waiting: already admitted (its driver sees the fired token and
    // finishes through the normal completion path) or already finished.
    if (it == waiting_.end()) return;
    query = it->second;
    queue_.Remove(query->request.tenant, id);
    waiting_.erase(it);
  }
  metrics_.OnCancelledBeforeAdmission(Status::Code::kCancelled);
  // A Drain() blocked on this queued query must re-check its predicate.
  idle_cv_.notify_all();
  QueryResult result;
  result.query_id = id;
  result.status = Status::Cancelled("query cancelled before admission");
  result.total_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    query->submit_time)
          .count();
  query->handle->Fulfill(std::move(result));
}

void QueryServer::ReapFinishedDrivers() {
  std::vector<std::thread> finished;
  {
    std::lock_guard<std::mutex> lock(mu_);
    finished.swap(reap_);
  }
  // Join outside the lock: a reaped driver may still be on its way out
  // (notifying idle_cv_, fulfilling its handle), and joining under mu_
  // could deadlock against a straggler still waiting to take it.
  for (std::thread& t : finished) t.join();
}

size_t QueryServer::live_drivers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return drivers_.size() + reap_.size();
}

void QueryServer::Drain() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [&] { return queue_.size() == 0 && inflight_ == 0; });
  }
  ReapFinishedDrivers();
}

}  // namespace serve
}  // namespace blackbox
