#include "common/thread_pool.hpp"

#include <atomic>

#include "common/require.hpp"

namespace unp {

ThreadPool::ThreadPool(std::size_t threads) {
  UNP_REQUIRE(threads >= 1);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    UNP_REQUIRE(!stop_);
    queue_.push(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      std::lock_guard lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  std::atomic<std::size_t> next{0};
  const std::size_t lanes = std::min(n, thread_count());
  // Wait for this call's lanes only, not for the whole pool: tasks submitted
  // beside it (the campaign's heavy nodes) keep running past the return.
  std::size_t lanes_left = lanes;  // guarded by mutex_
  std::condition_variable lanes_done;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    submit([this, &next, n, &fn, &lanes_left, &lanes_done] {
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        fn(i);
      }
      // Notify under the lock: the waiter's stack frame (and `lanes_done`)
      // may vanish as soon as it observes zero.
      std::lock_guard lock(mutex_);
      if (--lanes_left == 0) lanes_done.notify_all();
    });
  }
  std::unique_lock lock(mutex_);
  lanes_done.wait(lock, [&lanes_left] { return lanes_left == 0; });
}

}  // namespace unp
