#ifndef USI_CORE_QUERY_ENGINE_HPP_
#define USI_CORE_QUERY_ENGINE_HPP_

/// \file query_engine.hpp
/// The query contract shared by every answer path in the library.
///
/// UsiIndex (the paper's USI_TOP-K), ExhaustiveQueryEngine (the SA + PSW
/// scan) and the four Bsl* baselines all answer the same question — U(P) for
/// a pattern P — but grew separate entry points. QueryEngine unifies them so
/// benches, examples and the serving layer (UsiService) drive any engine
/// through one interface, and so batched serving can ask an engine whether
/// concurrent queries are safe before fanning a batch across a thread pool.
///
/// Batches are first-class: QueryBatch answers a span of borrowed patterns
/// into a span of results using caller-owned QueryScratch buffers — the hot
/// path allocates nothing once the scratch has warmed up to the workload's
/// pattern lengths. There is no per-batch preparation: a concurrent-safe
/// engine is read-only while it serves.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <span>
#include <vector>

#include "usi/hash/pattern_key.hpp"
#include "usi/suffix/sa_search.hpp"
#include "usi/text/alphabet.hpp"
#include "usi/util/common.hpp"

namespace usi {

/// A borrowed pattern: the span-of-spans batch entry points take these so
/// callers holding patterns in foreign storage (UsiMultiService's gather
/// stage, arena-backed request decoders) scatter pointers instead of
/// copying bytes into scratch Texts. The referenced bytes must stay alive
/// and unchanged for the duration of the batch call.
using PatternSpan = std::span<const Symbol>;

/// Borrowed views of owned patterns, for callers that hold
/// std::vector<Text> (tests, benches, examples, tools). It allocates, so no
/// hot path uses it; the views are valid while \p patterns is.
inline std::vector<PatternSpan> AsPatternSpans(
    std::span<const Text> patterns) {
  return std::vector<PatternSpan>(patterns.begin(), patterns.end());
}

/// Where an answer came from — the rung of the degradation ladder that
/// produced it (exact → hot-pattern cache → sketch estimate → none). The
/// exact path never touches this field: engines write utility/occurrences
/// and leave the default kExact standing, so threading provenance through
/// the serving stack costs the steady state nothing.
enum class AnswerProvenance : u8 {
  kExact = 0,     ///< Answered by an index/engine; error_bound is 0.
  kCached,        ///< Degraded: an exact answer this pattern received
                  ///< earlier, replayed from the hot-pattern cache
                  ///< (error_bound 0 relative to the recorded generation).
  kApproximate,   ///< Degraded: sketch estimate; |utility - U(P)| <=
                  ///< error_bound (one-sided: never an under-estimate).
  kNone,          ///< Filler: no rung could answer; utility/occurrences are
                  ///< default and carry no information.
};

/// Display name of an AnswerProvenance ("exact", "cached", ...).
inline const char* AnswerProvenanceName(AnswerProvenance provenance) {
  switch (provenance) {
    case AnswerProvenance::kExact: return "exact";
    case AnswerProvenance::kCached: return "cached";
    case AnswerProvenance::kApproximate: return "approximate";
    case AnswerProvenance::kNone: return "none";
  }
  return "?";
}

/// Result of a USI query.
struct QueryResult {
  double utility = 0;        ///< U(P); 0 when the pattern does not occur.
  index_t occurrences = 0;   ///< |occ_S(P)|.
  bool from_hash_table = false;  ///< Answered from a precomputed/cached table.
  /// Degradation-ladder rung that produced this answer. Engines leave the
  /// default (kExact); only the degraded serving paths write it.
  AnswerProvenance provenance = AnswerProvenance::kExact;
  /// Advertised error bound on `utility`: 0 for exact/cached answers;
  /// for kApproximate, utility - U(P) is in [0, error_bound] with the
  /// sketch's (epsilon, delta) guarantee (see core/degraded_tier.hpp).
  double error_bound = 0;
};

/// Filler for a result slot a batch never reached (deadline expiry) or lost
/// (engine fault): zeros tagged kNone, so callers can tell "no answer" from
/// an exact answer that happens to be zero.
inline QueryResult UnansweredResult() {
  QueryResult result;
  result.provenance = AnswerProvenance::kNone;
  return result;
}

/// Cooperative cancellation state shared by every worker of one batch.
///
/// The serving layer (UsiService) creates one per deadline-carrying batch
/// and threads a pointer through QueryScratch; engines with long batch
/// stages (UsiIndex's staged miss resolution) poll Expired() at checkpoint
/// boundaries and stop early. The expiry flag LATCHES: once any checkpoint
/// observes the deadline passed, every later check is a single relaxed load
/// — no worker re-reads the clock, and all of them agree the batch expired.
struct BatchControl {
  std::chrono::steady_clock::time_point deadline{};
  bool has_deadline = false;
  mutable std::atomic<bool> expired{false};

  /// Checkpoint poll: true once the deadline has passed (latched).
  bool Expired() const {
    if (!has_deadline) return false;
    if (expired.load(std::memory_order_relaxed)) return true;
    if (std::chrono::steady_clock::now() < deadline) return false;
    expired.store(true, std::memory_order_relaxed);
    return true;
  }
};

/// Reusable per-worker buffers for QueryBatch.
///
/// \par Reuse rules
///  * One scratch must never be shared by two concurrently-running
///    QueryBatch calls — it is mutable working memory. UsiService keeps one
///    per thread, and a thread runs at most one shard at a time.
///  * Sequential reuse across batches is the point: buffers only ever
///    grow, so a steady-state workload (same batch shape repeated) stops
///    allocating after the first batch (pinned by query_alloc_test).
///  * A scratch is engine-agnostic and carries no result state; passing it
///    to a different engine (as one thread's scratch does when it serves
///    several indexes), or dropping it between batches, affects only
///    performance, never answers.
struct QueryScratch {
  /// Per-pattern table keys (fingerprint, length), written by the
  /// fingerprint stage in batch order and read by the probe stage.
  std::vector<PatternKey> keys;
  /// Table-miss staging for the batched learned-fallback path: the batch
  /// positions that missed H, their borrowed pattern bytes, and the SA
  /// intervals the batched last-mile search resolves them to.
  std::vector<u32> misses;
  std::vector<PatternSpan> miss_patterns;
  std::vector<SaInterval> miss_intervals;
  /// Cancellation state of the in-flight batch (null = no deadline). Set by
  /// the serving layer for the duration of one QueryBatch call; engines
  /// poll it at checkpoint boundaries and write UnansweredResult() into
  /// unreached slots. Never owned by the scratch.
  const BatchControl* control = nullptr;
};

/// Abstract answer path for global-utility queries.
///
/// \par Thread safety
/// The contract is opt-in per engine:
///  * SupportsConcurrentQuery() == true promises Query / QueryBatch are
///    safe from multiple threads provided each concurrent call owns its
///    QueryScratch. UsiIndex qualifies: it is immutable after construction,
///    and its query paths fingerprint with KarpRabinHasher::Hash, which
///    reads no shared mutable state.
///  * SupportsConcurrentQuery() == false (the caching baselines) means the
///    engine mutates per-query state; callers must serialize, and answer
///    streams depend on query order.
class QueryEngine {
 public:
  virtual ~QueryEngine() = default;

  /// Answers U(P). Non-const: caching engines mutate internal state.
  virtual QueryResult Query(std::span<const Symbol> pattern) = 0;

  /// Short display name ("UET", "BSL2", ...).
  virtual const char* Name() const = 0;

  /// Index size in bytes (structures the engine answers from).
  virtual std::size_t SizeInBytes() const = 0;

  /// Whether Query may be invoked concurrently from multiple threads.
  /// Engines that mutate per-query state (the caching baselines) return
  /// false; UsiService then serves their batches sequentially, in order.
  virtual bool SupportsConcurrentQuery() const { return false; }

  /// Answers patterns[i] into results[i] for every i; results.size() must
  /// be >= patterns.size(). \p scratch may be null (the engine then uses
  /// call-local buffers). The answers are exactly what per-pattern Query
  /// calls in batch order would produce. Default: that loop, verbatim —
  /// which is also the only correct serving mode for caching engines.
  virtual void QueryBatch(std::span<const PatternSpan> patterns,
                          std::span<QueryResult> results,
                          QueryScratch* scratch) {
    (void)scratch;
    USI_DCHECK(results.size() >= patterns.size());
    for (std::size_t i = 0; i < patterns.size(); ++i) {
      results[i] = Query(patterns[i]);
    }
  }
};

}  // namespace usi

#endif  // USI_CORE_QUERY_ENGINE_HPP_
