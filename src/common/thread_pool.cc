#include "common/thread_pool.h"

#include <atomic>
#include <memory>

namespace wsie {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

bool ThreadPool::MorselFor(size_t n, size_t workers,
                           const std::function<bool(size_t)>& fn) {
  if (n == 0) return true;
  if (workers == 0) workers = 1;
  if (workers > n) workers = n;

  // Per-call completion state: a loop on a shared pool must not wait on
  // unrelated tasks, so it cannot use the pool-global Wait().
  struct State {
    std::atomic<size_t> cursor{0};
    std::atomic<bool> cancelled{false};
    std::mutex mu;
    std::condition_variable done;
    size_t active = 0;    // helpers currently inside drain()
    bool closed = false;  // set once the caller's own drain() returned
  };
  auto state = std::make_shared<State>();

  auto drain = [state, n, &fn] {
    for (;;) {
      if (state->cancelled.load(std::memory_order_relaxed)) break;
      size_t i = state->cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      if (!fn(i)) {
        state->cancelled.store(true, std::memory_order_relaxed);
        break;
      }
    }
  };
  for (size_t w = 1; w < workers; ++w) {  // the caller is worker zero
    Submit([state, drain] {
      {
        // A helper that starts after the caller closed the loop must not
        // touch `fn`: the call that owns it may already have returned.
        std::unique_lock<std::mutex> lock(state->mu);
        if (state->closed) return;
        ++state->active;
      }
      drain();
      std::unique_lock<std::mutex> lock(state->mu);
      if (--state->active == 0) state->done.notify_all();
    });
  }
  // The caller drains inline, so the loop makes progress even when the pool
  // is saturated or this thread is itself a pool worker. Once the cursor is
  // exhausted it waits only for helpers still running an index, never for
  // helper tasks that are queued behind busy workers.
  drain();
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->closed = true;
    state->done.wait(lock, [&state] { return state->active == 0; });
  }
  return !state->cancelled.load(std::memory_order_relaxed);
}

ThreadPool& SharedThreadPool() {
  // Leaked on purpose: worker threads must stay joinable for the whole
  // process lifetime (background compactors may fire arbitrarily late),
  // and a static-destruction-order join against them would be a shutdown
  // race. The OS reclaims everything at exit.
  static ThreadPool* pool = new ThreadPool(std::thread::hardware_concurrency());
  return *pool;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(lock,
                           [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

}  // namespace wsie
