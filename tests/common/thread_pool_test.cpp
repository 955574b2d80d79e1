#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <vector>

#include "common/require.hpp"

namespace unp {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPool) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
  SUCCEED();
}

TEST(ThreadPool, ParallelForResultIndependentOfThreads) {
  std::vector<double> out1(257), out4(257);
  {
    ThreadPool pool(1);
    pool.parallel_for(out1.size(),
                      [&](std::size_t i) { out1[i] = static_cast<double>(i * i); });
  }
  {
    ThreadPool pool(4);
    pool.parallel_for(out4.size(),
                      [&](std::size_t i) { out4[i] = static_cast<double>(i * i); });
  }
  EXPECT_EQ(out1, out4);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int batch = 0; batch < 5; ++batch) {
    pool.parallel_for(10, [&](std::size_t) { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ParallelForDoesNotWaitForUnrelatedTasks) {
  // A submitted task blocks until released (or until its timeout, so a
  // parallel_for that waits for the whole pool fails instead of hanging).
  ThreadPool pool(2);
  std::mutex mutex;
  std::condition_variable cv;
  bool released = false;
  std::atomic<bool> release_came_first{false};
  pool.submit([&] {
    std::unique_lock lock(mutex);
    release_came_first =
        cv.wait_for(lock, std::chrono::seconds(5), [&] { return released; });
  });

  std::atomic<int> hits{0};
  pool.parallel_for(16, [&](std::size_t) { hits.fetch_add(1); });
  {
    std::lock_guard lock(mutex);
    released = true;
  }
  cv.notify_all();
  pool.wait_idle();
  EXPECT_EQ(hits.load(), 16);
  EXPECT_TRUE(release_came_first.load())
      << "parallel_for waited for an unrelated submitted task";
}

TEST(ThreadPool, RequiresAtLeastOneThread) {
  EXPECT_THROW(ThreadPool(0), ContractViolation);
}

}  // namespace
}  // namespace unp
