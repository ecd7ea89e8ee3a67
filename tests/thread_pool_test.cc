// ThreadPool basics: task execution, futures, ParallelFor coverage and
// concurrency across worker threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

namespace gir {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  // Destructor drains the queue before joining.
  {
    ThreadPool scoped(2);
    for (int i = 0; i < 50; ++i) {
      scoped.Submit([&count] { count.fetch_add(1); });
    }
  }
  // The scoped pool is gone, so its 50 tasks completed; wait for ours.
  while (count.load() < 100) std::this_thread::yield();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, AsyncReturnsValue) {
  ThreadPool pool(2);
  std::future<int> f = pool.Async([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, ZeroRequestedThreadsStillWorks) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.Async([] { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  const size_t n = 1000;
  std::vector<std::atomic<int>> seen(n);
  pool.ParallelFor(n, [&seen](size_t i) { seen[i].fetch_add(1); });
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(seen[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForUsesMultipleWorkers) {
  ThreadPool pool(4);
  std::set<std::thread::id> ids;
  std::mutex mu;
  pool.ParallelFor(64, [&](size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  // With 64 sleeping iterations over 4 workers, more than one worker
  // must have participated (even a 1-core host timeslices them).
  EXPECT_GE(ids.size(), 2u);
}

TEST(ThreadPoolTest, ParallelForZeroIsNoOp) {
  ThreadPool pool(2);
  bool ran = false;
  pool.ParallelFor(0, [&ran](size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, ParallelForMoreIterationsThanWorkers) {
  ThreadPool pool(2);
  std::atomic<long> sum{0};
  pool.ParallelFor(500, [&sum](size_t i) { sum.fetch_add(static_cast<long>(i)); });
  EXPECT_EQ(sum.load(), 500L * 499L / 2);
}

TEST(ThreadPoolTest, ParallelForOfOneRunsOnTheCaller) {
  ThreadPool pool(4);
  std::thread::id ran_on;
  pool.ParallelFor(1, [&ran_on](size_t) {
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ThreadPoolTest, ParallelForNeverUsesMoreThreadsThanThePoolSize) {
  for (size_t workers : {1u, 2u, 4u}) {
    ThreadPool pool(workers);
    for (size_t n : {1u, 2u, 3u, 7u, 64u}) {
      std::set<std::thread::id> ids;
      std::mutex mu;
      pool.ParallelFor(n, [&](size_t) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        std::lock_guard<std::mutex> lock(mu);
        ids.insert(std::this_thread::get_id());
      });
      EXPECT_LE(ids.size(), std::min(n, workers))
          << "workers " << workers << " n " << n;
    }
  }
}

TEST(ThreadPoolTest, CallerIterationExceptionIsRethrownAfterHelpersFinish) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  const size_t n = 16;
  std::atomic<size_t> finished{0};
  bool caller_threw = false;
  try {
    pool.ParallelFor(n, [&](size_t) {
      if (std::this_thread::get_id() == caller) {
        throw std::runtime_error("caller iteration");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      finished.fetch_add(1);
    });
  } catch (const std::runtime_error& e) {
    caller_threw = std::string(e.what()) == "caller iteration";
  }
  // The caller always claims at least one iteration, so it threw; every
  // helper iteration had completed before ParallelFor rethrew.
  EXPECT_TRUE(caller_threw);
  const size_t after_return = finished.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(finished.load(), after_return);
  EXPECT_LT(after_return, n);
}

TEST(ThreadPoolTest, LoneIterationExceptionIsRethrown) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.ParallelFor(1, [](size_t) { throw std::logic_error("one"); }),
      std::logic_error);
}

TEST(ThreadPoolTest, HelperlessCallRunsInlineAndFinishesAfterAThrow) {
  // A one-thread pool has no helper to submit: every iteration runs on
  // the caller, and one that throws does not stop the rest.
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> ran(5, 0);
  bool all_on_caller = true;
  try {
    pool.ParallelFor(ran.size(), [&](size_t i) {
      all_on_caller &= std::this_thread::get_id() == caller;
      ran[i] = 1;
      if (i == 1 || i == 3) throw std::runtime_error(std::to_string(i));
    });
    ADD_FAILURE() << "no exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "1");  // the first one thrown
  }
  EXPECT_TRUE(all_on_caller);
  EXPECT_EQ(ran, std::vector<int>(5, 1));
}

}  // namespace
}  // namespace gir
