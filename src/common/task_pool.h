// Shared concurrency substrate (DESIGN.md §2.1): a fixed worker pool whose
// one operation is ParallelFor. The execution engine runs its per-partition
// operator work on it, and the serving layer shares one pool across the
// concurrent queries' drivers.
//
// Determinism contract: the pool schedules work in an unspecified order, so
// callers must make results independent of completion order — write into
// per-index slots, keep per-task state task-local, and merge in index order
// after ParallelFor returns. Under that discipline a computation's results
// are bit-identical for every pool size, which is what the engine's
// byte-identical-output guarantee builds on (DESIGN.md §2.1).

#ifndef BLACKBOX_COMMON_TASK_POOL_H_
#define BLACKBOX_COMMON_TASK_POOL_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace blackbox {

/// Fixed-size worker pool. With num_threads == 1 no workers are spawned and
/// every operation runs inline on the calling thread in index order — the
/// serial path stays exactly the code path the parallel one must match.
class TaskPool {
 public:
  /// num_threads <= 0 picks the hardware concurrency.
  explicit TaskPool(int num_threads);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Runs body(i) for every i in [0, n) and blocks until all calls returned.
  /// The calling thread participates, so progress is guaranteed even when all
  /// workers are busy with unrelated tasks. Indices are claimed in ascending
  /// order but may complete out of order; body must only touch state owned by
  /// its index. `priority` > 0 puts the helper tasks ahead of normal-priority
  /// work queued by other callers — the serving layer's lever for keeping
  /// short interactive queries ahead of long scans on a shared pool.
  /// Priority affects scheduling latency only, never results (the
  /// determinism contract above).
  void ParallelFor(size_t n, const std::function<void(size_t)>& body,
                   int priority = 0);

 private:
  void WorkerLoop();

  const int num_threads_;
  std::vector<std::thread> workers_;
  /// Two-level run queue: workers drain `priority_queue_` before `queue_`;
  /// FIFO within each level, so scheduling stays deterministic per level.
  std::deque<std::function<void()>> queue_;
  std::deque<std::function<void()>> priority_queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool shutdown_ = false;
};

}  // namespace blackbox

#endif  // BLACKBOX_COMMON_TASK_POOL_H_
