#ifndef USI_PARALLEL_THREAD_POOL_HPP_
#define USI_PARALLEL_THREAD_POOL_HPP_

/// \file thread_pool.hpp
/// Fixed-width thread pool and a deterministic parallel-for.
///
/// The pool is the substrate of the parallel build pipeline (UsiBuilder) and
/// of batched query serving (UsiService). Design rules, chosen so that a
/// parallel run is bit-reproducible against a sequential one:
///
///  * Work is expressed as indexed items; ParallelFor hands every index to
///    exactly one worker. Callers write results into per-index slots (or
///    per-worker partials merged in index order afterwards), never into
///    shared accumulators, so the combined output is independent of both the
///    thread count and the dynamic schedule.
///  * Each ParallelFor invocation passes a dense worker id in
///    [0, workers()) alongside the item index, for thread-confined scratch
///    (per-worker partials, buffers, ...).
///  * A null pool (or a single-thread pool) degrades to an inline loop on
///    the calling thread — the sequential build is literally the same code.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "usi/util/common.hpp"

namespace usi {

/// A fixed set of worker threads draining one task queue.
class ThreadPool {
 public:
  /// Spawns \p threads workers; 0 means HardwareConcurrency().
  explicit ThreadPool(unsigned threads = 0);

  /// Drains outstanding tasks and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  unsigned thread_count() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// Enqueues \p task for execution on some worker.
  void Run(std::function<void()> task);

  /// std::thread::hardware_concurrency() clamped to >= 1.
  static unsigned HardwareConcurrency();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Runs body(index, worker) for every index in [0, count) and returns once
/// all of them completed. Items are claimed dynamically (an atomic cursor),
/// but each runs exactly once and `worker` is a dense id in [0, W) where
/// W = min(pool->thread_count(), count) — use it to index per-worker scratch;
/// no two concurrently-running bodies share a worker id. With a null pool
/// the loop runs inline on the calling thread with worker == 0.
///
/// Must not be called from inside a pool task of the same pool (the caller
/// blocks until completion, so nested use can exhaust the workers).
void ParallelFor(ThreadPool* pool, std::size_t count,
                 const std::function<void(std::size_t index, unsigned worker)>&
                     body);

}  // namespace usi

#endif  // USI_PARALLEL_THREAD_POOL_HPP_
