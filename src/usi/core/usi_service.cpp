#include "usi/core/usi_service.hpp"

#include <algorithm>
#include <atomic>

#include "usi/parallel/thread_pool.hpp"
#include "usi/util/failpoint.hpp"
#include "usi/util/mapped_file.hpp"
#include "usi/util/timer.hpp"

namespace usi {

namespace {

/// The engine scratch of the serving thread. A thread runs at most one
/// shard at a time (a ParallelFor caller only waits on its latch), and a
/// QueryScratch is engine-agnostic, so one per thread serves every batch,
/// service and generation, and a publish never resets warm buffers.
thread_local QueryScratch thread_scratch;

}  // namespace

const char* ServeStatusName(ServeStatus status) {
  switch (status) {
    case ServeStatus::kOk: return "ok";
    case ServeStatus::kBusy: return "busy";
    case ServeStatus::kUnknownText: return "unknown-text";
    case ServeStatus::kNotReady: return "not-ready";
    case ServeStatus::kOverloaded: return "overloaded";
    case ServeStatus::kDeadlineExceeded: return "deadline-exceeded";
    case ServeStatus::kIndexUnavailable: return "index-unavailable";
    case ServeStatus::kDegraded: return "degraded";
    case ServeStatus::kInvalidArgument: return "invalid-argument";
  }
  return "?";
}

UsiService::UsiService(QueryEngine& engine, const UsiServiceOptions& options)
    : engine_(&engine), options_(options) {
  const unsigned threads = options.threads == 0
                               ? ThreadPool::HardwareConcurrency()
                               : options.threads;
  if (threads > 1 && engine.SupportsConcurrentQuery()) {
    owned_pool_ = std::make_unique<ThreadPool>(threads);
    pool_ = owned_pool_.get();
  }
}

UsiService::UsiService(QueryEngine& engine, ThreadPool* pool,
                       const UsiServiceOptions& options)
    : engine_(&engine), pool_(pool), options_(options) {}

UsiService::~UsiService() = default;

unsigned UsiService::threads() const {
  if (pool_ == nullptr || !engine_->SupportsConcurrentQuery()) return 1;
  return std::max(1u, pool_->thread_count());
}

std::vector<QueryResult> UsiService::QueryBatch(
    std::span<const PatternSpan> patterns) {
  std::vector<QueryResult> results(patterns.size());
  QueryBatchInto(patterns, results);
  return results;
}

ServeStatus UsiService::QueryBatchInto(std::span<const PatternSpan> patterns,
                                       std::span<QueryResult> results,
                                       UsiBatchStats* stats,
                                       const UsiBatchOptions& batch_options) {
  // A client-sized span mismatch is refused before any work: no result
  // slot, scratch or stats is touched.
  if (results.size() < patterns.size()) return ServeStatus::kInvalidArgument;
  Timer timer;
  UsiBatchStats batch;
  batch.patterns = patterns.size();
  BatchControl control;
  if (batch_options.deadline.has_value()) {
    control.has_deadline = true;
    control.deadline = *batch_options.deadline;
  }

  // Sequential serving runs in batch order (also the only correct mode for
  // caching engines, whose answers depend on query order): one engine call,
  // or min_shard-sized shards when a deadline needs checkpoints. Parallel
  // serving cuts contiguous shards, a few per worker so uneven per-pattern
  // costs (hash hit vs SA fallback) balance out; every pattern writes its
  // own result slot, so the output is schedule-independent. Each shard runs
  // the engine's batch path with the scratch of the thread it landed on.
  const unsigned workers = threads();
  const std::size_t min_shard =
      std::max<std::size_t>(1, options_.min_shard_size);
  const bool parallel = workers > 1 && patterns.size() >= 2 * min_shard;
  std::size_t shard_size = std::max<std::size_t>(1, patterns.size());
  if (parallel) {
    const std::size_t target_shards = static_cast<std::size_t>(workers) * 4;
    shard_size = std::max(
        min_shard, (patterns.size() + target_shards - 1) / target_shards);
  } else if (control.has_deadline) {
    shard_size = min_shard;
  }
  const std::size_t shards = (patterns.size() + shard_size - 1) / shard_size;

  // The deadline checkpoint sits between shards: an expired shard writes
  // kNone filler and returns, so overshoot is bounded by one shard of work.
  // Every engine call is contained: a SIGBUS on a registered mapped range
  // (MappedFaultGuard), a simulated fault (the serve.mapped_fault
  // failpoint, the TSan-safe chaos path), or an exception escaping the
  // engine all turn into "this shard failed" — kNone filler, batch reported
  // kIndexUnavailable — instead of killing the process or the pool worker.
  std::atomic<bool> unavailable{false};
  std::atomic<std::size_t> answered{0};
  const auto serve_shard = [&](std::size_t s, unsigned) {
    const std::size_t begin = s * shard_size;
    const std::size_t size = std::min(patterns.size(), begin + shard_size) -
                             begin;
    const auto shard_patterns = patterns.subspan(begin, size);
    const auto shard_results = results.subspan(begin, size);
    bool ok = false;
    if (!control.Expired()) {
      // `control` lives on this batch's stack frame: the scratch points at
      // it only for the engine call, and every exit (return, fault return,
      // catch) passes the reset below.
      QueryScratch& scratch = thread_scratch;
      scratch.control = &control;
      try {
        ok = !USI_FAILPOINT_FIRED("serve.mapped_fault") &&
             MappedFaultGuard::Run([&] {
               engine_->QueryBatch(shard_patterns, shard_results, &scratch);
             });
      } catch (...) {
        ok = false;
      }
      scratch.control = nullptr;
      if (!ok) unavailable.store(true, std::memory_order_relaxed);
    }
    if (ok) {
      answered.fetch_add(size, std::memory_order_relaxed);
    } else {
      std::fill(shard_results.begin(), shard_results.end(),
                UnansweredResult());
    }
  };
  if (parallel) {
    ParallelFor(pool_, shards, serve_shard);
    batch.shards = shards;
    // Fewer shards than workers means only that many bodies ever ran
    // concurrently; report the parallelism the timing actually reflects.
    batch.threads_used =
        static_cast<unsigned>(std::min<std::size_t>(workers, shards));
  } else {
    for (std::size_t s = 0; s < shards; ++s) serve_shard(s, 0);
  }

  batch.answered = answered.load(std::memory_order_relaxed);
  batch.deadline_expired =
      control.has_deadline && control.expired.load(std::memory_order_relaxed);
  const bool failed = unavailable.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    batch.hash_hits += results[i].from_hash_table ? 1 : 0;
  }
  batch.seconds = timer.ElapsedSeconds();
  if (stats != nullptr) *stats = batch;
  if (failed) return ServeStatus::kIndexUnavailable;
  if (batch.deadline_expired) return ServeStatus::kDeadlineExceeded;
  return ServeStatus::kOk;
}

}  // namespace usi
