#include "common/task_pool.h"

#include <algorithm>
#include <memory>

namespace blackbox {

namespace {

int ResolveThreads(int requested) {
  if (requested > 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace

TaskPool::TaskPool(int num_threads) : num_threads_(ResolveThreads(num_threads)) {
  workers_.reserve(num_threads_ > 1 ? num_threads_ - 1 : 0);
  // The calling thread is worker 0; only the surplus gets real threads.
  for (int i = 1; i < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void TaskPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] {
        return shutdown_ || !priority_queue_.empty() || !queue_.empty();
      });
      if (priority_queue_.empty() && queue_.empty()) {
        return;  // shutdown with drained queues
      }
      std::deque<std::function<void()>>& q =
          priority_queue_.empty() ? queue_ : priority_queue_;
      task = std::move(q.front());
      q.pop_front();
    }
    task();
  }
}

void TaskPool::ParallelFor(size_t n, const std::function<void(size_t)>& body,
                           int priority) {
  if (n == 0) return;
  if (num_threads_ == 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }

  // Shared per-call state: workers and the caller claim ascending indices
  // from `next`; the caller blocks until all n indices completed.
  struct ForState {
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::mutex mu;
    std::condition_variable cv;
  };
  auto state = std::make_shared<ForState>();
  auto drain = [state, n, &body] {
    size_t i;
    while ((i = state->next.fetch_add(1)) < n) {
      body(i);
      if (state->done.fetch_add(1) + 1 == n) {
        std::lock_guard<std::mutex> lock(state->mu);
        state->cv.notify_all();
      }
    }
  };

  size_t helpers = std::min<size_t>(num_threads_ - 1, n - 1);
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::deque<std::function<void()>>& q =
        priority > 0 ? priority_queue_ : queue_;
    for (size_t i = 0; i < helpers; ++i) q.push_back(drain);
  }
  cv_.notify_all();

  drain();
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] { return state->done.load() == n; });
  // Helper lambdas hold shared_ptr copies of the state, so stragglers that
  // wake after completion see a valid (exhausted) counter and exit.
}

}  // namespace blackbox
