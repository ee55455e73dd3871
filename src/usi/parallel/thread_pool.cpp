#include "usi/parallel/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <latch>
#include <utility>

namespace usi {

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = HardwareConcurrency();
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Run(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    USI_CHECK(!stopping_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

unsigned ThreadPool::HardwareConcurrency() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ParallelFor(ThreadPool* pool, std::size_t count,
                 const std::function<void(std::size_t index, unsigned worker)>&
                     body) {
  if (count == 0) return;
  const unsigned workers =
      pool == nullptr
          ? 1
          : static_cast<unsigned>(std::min<std::size_t>(pool->thread_count(),
                                                        count));
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i, 0);
    return;
  }

  // One long-lived task per worker id; items are claimed through a shared
  // cursor so uneven item costs cannot idle a worker.
  std::atomic<std::size_t> cursor{0};
  std::latch done(workers);
  for (unsigned w = 0; w < workers; ++w) {
    pool->Run([&, w] {
      for (std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
           i < count; i = cursor.fetch_add(1, std::memory_order_relaxed)) {
        body(i, w);
      }
      done.count_down();
    });
  }
  done.wait();
}

}  // namespace usi
