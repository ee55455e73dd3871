#ifndef USI_CORE_USI_SERVICE_HPP_
#define USI_CORE_USI_SERVICE_HPP_

/// \file usi_service.hpp
/// Batched, sharded query serving over any QueryEngine.
///
/// UsiService is the throughput layer the ROADMAP's serving story builds on:
/// a batch of patterns is split into contiguous shards and fanned out across
/// a thread pool, with each shard answered independently through the
/// engine's QueryBatch. Every shard runs on its thread's QueryScratch, one
/// per thread and shared by every service and index that thread serves, so
/// after warm-up a steady-state batch allocates nothing beyond what the
/// caller hands in, not even the first batch after a new index is
/// published. Results land in per-pattern slots, so the output is
/// byte-for-byte the sequential answer in the original order, at any thread
/// count.
///
/// Engines that mutate per-query state (the caching baselines BSL2-4 —
/// SupportsConcurrentQuery() == false) are served sequentially and in batch
/// order, preserving their cache semantics exactly.
///
/// \par Thread safety
/// QueryBatch / QueryBatchInto may be called concurrently from multiple
/// client threads when the engine's SupportsConcurrentQuery() is true. A
/// batch takes no lock of the service's own: a thread runs at most one
/// shard at a time, so its thread-local scratch is never shared by two
/// running shards. The service keeps no cumulative counters: each batch's
/// telemetry goes to the caller through the UsiBatchStats out-parameter of
/// QueryBatchInto. For engines without concurrent-query support the caller
/// must serialize batches externally (the engine itself is the shared
/// mutable state).

#include <chrono>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "usi/core/query_engine.hpp"
#include "usi/text/alphabet.hpp"

namespace usi {

class ThreadPool;

/// Outcome of a serving-layer batch (UsiService and UsiMultiService share
/// the taxonomy). kOk / kBusy / kOverloaded / kUnknownText / kNotReady /
/// kInvalidArgument are all-or-nothing: no query executed, results
/// untouched. The partial statuses — kDeadlineExceeded, kIndexUnavailable
/// and kDegraded — return with every result slot WRITTEN (answered queries
/// carry real answers, unanswered ones are kNone filler or, on the degraded
/// paths, tier answers tagged with their provenance), so callers can use
/// what was served.
enum class ServeStatus : u8 {
  kOk = 0,
  kBusy,          ///< Admission: over the in-flight batch cap.
  kUnknownText,   ///< A query named a text id that is not registered.
  kNotReady,      ///< A referenced text has no built generation yet.
  kOverloaded,    ///< Admission: estimated batch cost over the cost cap.
  kDeadlineExceeded,  ///< Deadline hit mid-batch; partial results.
  kIndexUnavailable,  ///< Index backing failed (mmap fault / exception).
  kDegraded,      ///< Batch answered, at least partly, by the degraded tier
                  ///< (hot-pattern cache / sketch estimates) instead of the
                  ///< exact index; per-result provenance says which rung.
  kInvalidArgument,  ///< Caller-supplied sizes disagree (a results span
                     ///< shorter than the batch, text and weights of
                     ///< different lengths); nothing was done.
};

/// Display name of a ServeStatus ("ok", "busy", ...).
const char* ServeStatusName(ServeStatus status);

/// Tuning for UsiService.
struct UsiServiceOptions {
  /// Pool width when the service owns its pool: 0 = hardware concurrency,
  /// 1 = serve in-thread (no pool). Ignored when a pool is injected.
  unsigned threads = 0;
  /// Floor on patterns per shard; small batches stay on one thread rather
  /// than paying fan-out overhead.
  std::size_t min_shard_size = 16;
};

/// Per-batch serving knobs.
struct UsiBatchOptions {
  /// Cooperative deadline: serving checks it between shards (and the engine
  /// between batch stages) and stops early, returning kDeadlineExceeded
  /// with partial results. A batch never overshoots the deadline by more
  /// than one checkpoint interval of engine work. nullopt = no deadline.
  std::optional<std::chrono::steady_clock::time_point> deadline;
};

/// Telemetry of one QueryBatch.
struct UsiBatchStats {
  std::size_t patterns = 0;
  std::size_t answered = 0;   ///< Queries actually served (== patterns
                              ///< unless the batch expired or failed).
  std::size_t hash_hits = 0;  ///< Answers served from a precomputed table.
  std::size_t shards = 1;
  unsigned threads_used = 1;
  double seconds = 0;
  bool deadline_expired = false;  ///< The batch hit its deadline.
};

/// Serves batches of utility queries through one QueryEngine.
class UsiService {
 public:
  /// \p engine is borrowed and must outlive the service. The service owns
  /// its pool, sized per \p options.
  explicit UsiService(QueryEngine& engine,
                      const UsiServiceOptions& options = {});

  /// As above but sharing \p pool (borrowed; null = serve in-thread).
  UsiService(QueryEngine& engine, ThreadPool* pool,
             const UsiServiceOptions& options = {});

  ~UsiService();

  UsiService(const UsiService&) = delete;
  UsiService& operator=(const UsiService&) = delete;

  /// Answers every pattern; results[i] corresponds to patterns[i]. Sharded
  /// across the pool when the engine supports concurrent queries, served
  /// sequentially in order otherwise — the results are identical either way.
  std::vector<QueryResult> QueryBatch(std::span<const PatternSpan> patterns);

  /// As QueryBatch, into caller-owned storage. This is the steady-state
  /// serving entry point: patterns are borrowed from caller storage (bytes
  /// must stay alive and unchanged for the call), and each shard reuses its
  /// thread's scratch, so after warm-up a repeated batch shape performs zero
  /// heap allocations on the sequential path. When \p stats
  /// is non-null it receives this batch's telemetry.
  ///
  /// Returns kOk when every query was answered; kInvalidArgument when
  /// results.size() < patterns.size() (results and stats untouched);
  /// kDeadlineExceeded when \p batch_options.deadline expired mid-batch
  /// (partial results, see ServeStatus); kIndexUnavailable when the engine
  /// faulted (a truncated mapped index, or an exception out of the fallback
  /// path) — the process survives and the batch reports the failure
  /// instead.
  ServeStatus QueryBatchInto(std::span<const PatternSpan> patterns,
                             std::span<QueryResult> results,
                             UsiBatchStats* stats = nullptr,
                             const UsiBatchOptions& batch_options = {});

  /// Worker threads available for fan-out (1 = sequential serving).
  unsigned threads() const;

 private:
  QueryEngine* engine_;
  ThreadPool* pool_ = nullptr;            ///< Borrowed, may be null.
  std::unique_ptr<ThreadPool> owned_pool_;
  UsiServiceOptions options_;
};

}  // namespace usi

#endif  // USI_CORE_USI_SERVICE_HPP_
