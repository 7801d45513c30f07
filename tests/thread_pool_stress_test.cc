// Concurrency stress tests for the shared thread pool, run under TSAN by
// scripts/tsan_check.sh (ctest -L tsan). They hammer the invariants the
// morsel executor and the crawler rely on: concurrent Submit()+Wait() from
// several client threads, and MorselFor() calls that must track their own
// completion instead of waiting on unrelated work, and must finish on the
// calling thread when every worker is busy.

#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace wsie {
namespace {

TEST(ThreadPoolStressTest, ConcurrentSubmitAndWait) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  constexpr int kClients = 8;
  constexpr int kTasksPerClient = 200;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < kTasksPerClient; ++i) {
        pool.Submit([&counter] {
          counter.fetch_add(1, std::memory_order_relaxed);
        });
      }
      pool.Wait();
    });
  }
  for (auto& t : clients) t.join();
  pool.Wait();
  EXPECT_EQ(counter.load(), kClients * kTasksPerClient);
}

TEST(ThreadPoolStressTest, ConcurrentMorselForCallers) {
  // Several threads drive independent MorselFor loops over one pool; each
  // call must see exactly its own indices complete before returning.
  ThreadPool pool(4);
  constexpr int kCallers = 6;
  constexpr size_t kItems = 500;
  std::vector<std::thread> callers;
  std::vector<std::atomic<size_t>> sums(kCallers);
  for (auto& s : sums) s = 0;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      bool complete = pool.MorselFor(kItems, 4, [&, c](size_t i) {
        sums[static_cast<size_t>(c)].fetch_add(i + 1,
                                               std::memory_order_relaxed);
        return true;
      });
      EXPECT_TRUE(complete);
      // MorselFor returned: every index of THIS call has run, regardless of
      // the other callers' in-flight work.
      EXPECT_EQ(sums[static_cast<size_t>(c)].load(),
                kItems * (kItems + 1) / 2);
    });
  }
  for (auto& t : callers) t.join();
}

TEST(ThreadPoolStressTest, MorselForCancellationStopsScheduling) {
  ThreadPool pool(4);
  std::atomic<size_t> calls{0};
  bool complete = pool.MorselFor(10000, 4, [&](size_t i) {
    calls.fetch_add(1, std::memory_order_relaxed);
    return i < 5;  // cancel early
  });
  EXPECT_FALSE(complete);
  // Already-claimed morsels may finish, but the bulk must never run.
  EXPECT_LT(calls.load(), 1000u);
}

TEST(ThreadPoolStressTest, MorselForSkewedWorkCompletes) {
  // One very heavy item among many light ones: the shared cursor keeps the
  // other workers busy and the call still completes every index.
  ThreadPool pool(4);
  std::atomic<size_t> done{0};
  bool complete = pool.MorselFor(64, 4, [&](size_t i) {
    if (i == 0) {
      std::atomic<int> spin{0};
      while (spin.load(std::memory_order_relaxed) < 2000000) {
        spin.fetch_add(1, std::memory_order_relaxed);
      }
    }
    done.fetch_add(1, std::memory_order_relaxed);
    return true;
  });
  EXPECT_TRUE(complete);
  EXPECT_EQ(done.load(), 64u);
}

TEST(ThreadPoolStressTest, MorselForMoreWorkersThanItems) {
  ThreadPool pool(8);
  std::atomic<size_t> done{0};
  EXPECT_TRUE(pool.MorselFor(3, 16, [&](size_t) {
    done.fetch_add(1, std::memory_order_relaxed);
    return true;
  }));
  EXPECT_EQ(done.load(), 3u);
  EXPECT_TRUE(pool.MorselFor(0, 4, [&](size_t) { return true; }));
}

TEST(ThreadPoolStressTest, NestedMorselForCompletesOnSaturatedPool) {
  // The caller and both workers of a 2-thread pool each hold one item of an
  // outer loop. One worker-side item runs an inner loop on the same pool
  // while the other two block until it finishes, so no worker is free to
  // start the inner loop's helper task: the inner loop must complete on its
  // calling thread alone.
  ThreadPool pool(2);
  const std::thread::id main_thread = std::this_thread::get_id();
  constexpr auto kTimeout = std::chrono::seconds(5);
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  int timed_out = 0;
  bool inner_claimed = false;
  bool inner_done = false;
  std::atomic<size_t> inner_items{0};
  bool outer_complete = pool.MorselFor(3, 3, [&](size_t) {
    std::unique_lock<std::mutex> lock(mu);
    ++arrived;
    cv.notify_all();
    if (!cv.wait_for(lock, kTimeout, [&] { return arrived == 3; })) {
      ++timed_out;
      return true;
    }
    if (std::this_thread::get_id() != main_thread && !inner_claimed) {
      inner_claimed = true;
      lock.unlock();
      bool inner_complete = pool.MorselFor(64, 2, [&](size_t) {
        inner_items.fetch_add(1, std::memory_order_relaxed);
        return true;
      });
      lock.lock();
      inner_done = inner_complete;
      cv.notify_all();
      return true;
    }
    if (!cv.wait_for(lock, kTimeout, [&] { return inner_done; })) {
      ++timed_out;
    }
    return true;
  });
  EXPECT_TRUE(outer_complete);
  EXPECT_EQ(timed_out, 0);
  EXPECT_TRUE(inner_done);
  EXPECT_EQ(inner_items.load(), 64u);
}

}  // namespace
}  // namespace wsie
