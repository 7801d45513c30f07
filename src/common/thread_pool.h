#ifndef WSIE_COMMON_THREAD_POOL_H_
#define WSIE_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace wsie {

/// A fixed-size worker pool used by the dataflow executor and the crawler's
/// fetcher threads.
///
/// The pool owns its threads; Submit() enqueues a task, Wait() blocks until
/// all submitted tasks have finished. The destructor drains outstanding work.
/// Thread-safe for concurrent Submit() calls.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool();

  /// Enqueues `task` for execution on some worker.
  void Submit(std::function<void()> task);

  /// Blocks until every task submitted so far has completed.
  void Wait();

  size_t num_threads() const { return threads_.size(); }

  /// Morsel-driven loop: the calling thread and up to `workers - 1` pool
  /// tasks pull indices in [0, n) from a shared atomic cursor until it is
  /// exhausted, so skewed item costs never straggle a static pre-split.
  /// `fn(i)` returns false to cancel the loop — indices not yet claimed are
  /// skipped (already-running calls finish). Returns true if every index
  /// ran, false if cancelled.
  ///
  /// Completion is tracked per call, not through Wait(), so several threads
  /// may run MorselFor() on one shared pool concurrently without waiting on
  /// each other's unrelated tasks. Because the caller always makes progress
  /// itself, the loop completes even when every pool worker is busy — or
  /// when the caller *is* a pool worker of this very pool — so nested loops
  /// on a shared pool cannot self-deadlock.
  bool MorselFor(size_t n, size_t workers,
                 const std::function<bool(size_t)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  size_t in_flight_ = 0;
  bool shutting_down_ = false;
};

/// The process-wide shared pool (hardware_concurrency threads, lazily
/// constructed, never destroyed before exit). The write path — partitioned
/// compaction merges and morsel-parallel ANN builds — schedules on it so
/// background maintenance and foreground builds share one set of cores
/// instead of each spawning private thread armies. Outputs never depend on
/// its width: every parallel loop scheduled here is a pure per-index
/// function applied in a deterministic order.
ThreadPool& SharedThreadPool();

}  // namespace wsie

#endif  // WSIE_COMMON_THREAD_POOL_H_
