#ifndef USI_CORE_DEGRADED_TIER_HPP_
#define USI_CORE_DEGRADED_TIER_HPP_

/// \file degraded_tier.hpp
/// Per-text graceful-degradation tier: bounded-error answers when the exact
/// index cannot serve.
///
/// PR 8 made failure *contained* — overload, quarantined builds and mapped
/// faults return typed rejections — but a rejection still answers nothing.
/// The degraded tier closes that gap: it observes (pattern, exact answer)
/// pairs on the exact serving path and replays them on the degraded paths,
/// through a two-rung ladder consulted by UsiMultiService when a batch opts
/// in (MultiBatchOptions::allow_degraded):
///
///   exact  ─► hot-pattern cache  ─► sketch estimate  ─► none (filler slot)
///
/// \par Rungs and bound semantics
///  * **Cache** (AnswerProvenance::kCached, error_bound 0): a fixed-capacity
///    set-associative answer cache keyed by PatternKey. Each set's 8 tags
///    and popularity counts share one 64-byte line; the answers sit in a
///    parallel payload array. Popularity lives in those counts, learned
///    from traffic by HeavyKeeper's decay rule applied within the set: a
///    hit increments its way, a miss decays the set's least-count way with
///    probability b^-count (b = 1.08) and takes it once the count reaches
///    0. A pattern recorded for the first time only fills an empty way, so
///    one-off patterns do not wear down the ones that repeat. This is the
///    BSL3/BSL4 "top-K seen so far" admission of the caching baselines,
///    kept per set. A hit replays the exact utility the pattern was served
///    when admitted — bound 0 relative to the text content the tier learned
///    from (the multi-service resets the tier when a text's content
///    changes, so within one content version a cached answer equals the
///    exact answer, to the same 64-bit-fingerprint identity standard the
///    index's own hash table H uses).
///  * **Sketch** (AnswerProvenance::kApproximate): a count-min sketch over
///    served (fingerprint -> utility) mass. Each distinct pattern's exact
///    utility is added ONCE (an exact-membership filter of key hashes
///    enforces single insertion), so for a sketched pattern the min-over-rows
///    estimate never under-estimates U(P) and over-estimates by more than
///    epsilon * M (M = total utility mass inserted, epsilon = e / width)
///    with probability at most delta = e^-depth — the classic CMS guarantee,
///    surfaced per answer as QueryResult::error_bound = epsilon * M.
///    Occurrence counts ride in a parallel min-sketch with the same
///    geometry. Patterns the filter has never seen are NOT estimated (the
///    sketch cannot bound an answer for them) — the tier returns false and
///    the serving layer writes a kNone filler slot.
///
/// \par Exact-path cost
/// The exact serving path offers every answered group to RecordExactBatch,
/// so recording is built to stay off the critical path. All structures are
/// fixed-capacity arrays sized at construction (no per-operation
/// allocation, pinned by query_alloc_test). A group is recorded in chunks
/// of kRecordChunk keys held on the stack: each chunk is hashed (KeyFor, a
/// word-at-a-time hash whose SplitMix64 finish is the only mixing a key
/// gets) before the lock is touched, then the tier lock is *try*-acquired
/// ONCE for the chunk. Under contention the whole chunk is dropped and
/// counted in record_drops — a little learning traded for zero queueing.
/// Only with the lock held does the chunk prefetch each key's cache set and
/// filter home slot, a few records ahead of applying them in order through
/// the same body the single-answer RecordExact uses; prefetching before the
/// lock would pull lines away from whoever holds it (a Clear, another
/// recorder) for a chunk that may yet be dropped. A record reads one set
/// line; a hit ends there (the 32-bit tag is trusted: lookups confirm the
/// whole key), and a miss adds the filter's slot and, if admitted, one
/// payload write. The tier state after a batch is identical to recording
/// the same answers one by one. Degraded-path lookups take the lock (they
/// run when the exact path is not serving).
///
/// \par Content epochs
/// Clear() bumps epoch(). A recorder reads the epoch BEFORE it pins the
/// generation it serves from and passes it to RecordExactBatch; a batch
/// whose epoch is no longer current is dropped under the tier lock
/// (counted in stale_drops). The multi-service also clears a text's tier
/// after every content-changing publish, so answers a reader computed from
/// the outgoing content — recorded before or after the clear — can never
/// be replayed as kCached against the new content.
///
/// \par Thread safety
/// All members are safe to call concurrently; one mutex guards the
/// structures (record = try_lock + drop, lookup = lock).

#include <atomic>
#include <mutex>
#include <span>
#include <vector>

#include "usi/core/query_engine.hpp"
#include "usi/hash/pattern_key.hpp"
#include "usi/text/alphabet.hpp"
#include "usi/util/common.hpp"
#include "usi/util/memory.hpp"

namespace usi {

/// Tuning for a DegradedTier. Capacities round up to powers of two.
struct DegradedTierOptions {
  /// Hot-pattern answer cache slots, in 8-way sets (so at least 8; 0
  /// disables the cache rung).
  std::size_t cache_capacity = 4096;
  /// Count-min geometry: buckets per row / number of rows. The additive
  /// utility bound is (e / width) * inserted-utility-mass with failure
  /// probability e^-depth.
  std::size_t sketch_width = 4096;
  std::size_t sketch_depth = 4;
  /// Sizes the membership filter, not an exact cap: the filter holds
  /// 2 * RoundUpPow2(max_sketched_keys) slots and admits distinct patterns
  /// until 7/8 of them are taken, 1.75x this value at a power of two
  /// (57,344 for the default 32,768). Past that the sketch stops admitting
  /// new patterns (already sketched ones keep answering), so
  /// single-insertion stays exact. DegradedTierStats::max_sketched_keys
  /// reports the admitted count.
  std::size_t max_sketched_keys = 1 << 15;
  u64 seed = 0xDE62ADEDULL;
};

/// Telemetry snapshot of one tier (usi_inspect / UsiTextStats).
struct DegradedTierStats {
  std::size_t cache_capacity = 0;
  std::size_t cache_size = 0;
  u64 records = 0;         ///< Exact answers observed (post-drop).
  u64 record_drops = 0;    ///< Records dropped by try_lock contention.
  u64 stale_drops = 0;     ///< Records dropped for a superseded epoch.
  u64 lookups = 0;         ///< Degraded-path consults.
  u64 cache_hits = 0;      ///< Lookups answered by the cache rung.
  u64 sketch_answers = 0;  ///< Lookups answered by the sketch rung.
  u64 unanswered = 0;      ///< Lookups no rung could answer.
  std::size_t sketch_width = 0;
  std::size_t sketch_depth = 0;
  double epsilon = 0;       ///< e / width: bound = epsilon * sketch_mass.
  std::size_t sketched_keys = 0;   ///< Distinct patterns in the sketch.
  std::size_t max_sketched_keys = 0;  ///< Distinct patterns it admits.
  double sketch_mass = 0;   ///< Total utility mass inserted (the M above).

  /// Cache hit rate over degraded lookups (0 when never consulted).
  double CacheHitRate() const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(cache_hits) /
                              static_cast<double>(lookups);
  }
};

/// The per-text front tier. One instance lives on each registered text of a
/// UsiMultiService, shared across index generations (a quarantined text
/// with no servable generation is exactly when the tier earns its keep).
class DegradedTier {
 public:
  explicit DegradedTier(const DegradedTierOptions& options = {});

  /// Keys recorded per try_lock by RecordExactBatch.
  static constexpr std::size_t kRecordChunk = 32;

  /// The tier's pattern identity: a 64-bit hash of the pattern bytes plus
  /// the length. Self-consistent within the tier (it need not match the
  /// index's Karp-Rabin key — the tier is only ever consulted against what
  /// it recorded itself). Reads the bytes 8 at a time into four
  /// independent lanes, so long patterns hash at word rather than byte
  /// speed; every single-byte change alters the key. The fp ends in a
  /// SplitMix64 finish and the tier indexes with its bits directly, so
  /// keys passed to RecordExact / TryAnswer must come from KeyFor.
  static PatternKey KeyFor(std::span<const Symbol> pattern);

  /// Observes one exactly-served answer. Never blocks: under lock
  /// contention the update is dropped. Never allocates. Prefer
  /// RecordExactBatch for groups of answers.
  void RecordExact(const PatternKey& key, const QueryResult& result);

  /// Observes a group of exactly-served answers (patterns[i] answered
  /// results[i]) learned from content epoch \p epoch. Records in chunks of
  /// kRecordChunk, one try_lock per chunk (a contended chunk is dropped
  /// whole); drops everything once \p epoch is no longer epoch(). Given
  /// the same answers in the same order, leaves the tier exactly as a
  /// RecordExact loop would. Never blocks, never allocates.
  void RecordExactBatch(std::span<const PatternSpan> patterns,
                        std::span<const QueryResult> results, u64 epoch);

  /// Degraded-path lookup: tries the cache rung then the sketch rung.
  /// On success writes utility/occurrences and tags \p out with
  /// provenance + error bound; returns false when no rung can answer
  /// (\p out untouched). Never allocates.
  bool TryAnswer(const PatternKey& key, QueryResult* out);

  /// Forgets everything (the owning text's content changed: recorded
  /// answers and bounds no longer describe it) and bumps epoch().
  /// Cumulative telemetry counters survive; structures and sketch mass
  /// reset in place (no allocation).
  void Clear();

  /// Content epoch: the number of Clear() calls so far. Read it before
  /// pinning the content an answer is computed from.
  u64 epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Telemetry snapshot.
  DegradedTierStats stats() const;

  /// Heap footprint in bytes.
  std::size_t SizeInBytes() const;

 private:
  /// Ways per cache set: a set's tags and counts fill one 64-byte line.
  static constexpr std::size_t kWays = 8;

  /// One cache set. Way w holds the pattern whose key's high 32 bits are
  /// tags[w]; counts[w] is its HeavyKeeper popularity, and 0 marks the way
  /// empty. A record or lookup reads this line and, only on a tag match or
  /// an insert, that way's payload.
  struct alignas(64) CacheSet {
    u32 tags[kWays] = {};
    u32 counts[kWays] = {};
  };
  static_assert(sizeof(CacheSet) == 64);
  static constexpr u32 kMaxCount = ~u32{0};

  /// One way's full key and answer, in an array parallel to the sets (set
  /// s, way w at s * kWays + w). 32-byte aligned, so none straddles a line.
  struct alignas(32) CachePayload {
    u64 fp = 0;
    double utility = 0;
    u32 len = 0;
    index_t occurrences = 0;
  };
  static_assert(sizeof(CachePayload) == 32);

  /// The set a key maps to, and its tag within the set. KeyFor's fp is
  /// already a SplitMix64 output, so its bits are used without re-mixing:
  /// low bits pick the set, high bits tag the way.
  std::size_t SetOf(u64 hash) const { return hash & (sets_.size() - 1); }
  static u32 TagOf(u64 hash) { return static_cast<u32>(hash >> 32); }

  /// One record's state update; caller holds mu_.
  void RecordLocked(const PatternKey& key, const QueryResult& result);
  /// Prefetches the lines RecordLocked will touch first for \p hash (its
  /// cache set and filter home slot); caller holds mu_.
  void PrefetchLocked(u64 hash) const;
  /// The non-empty way of \p set tagged \p tag, or kWays. A set never
  /// holds one tag twice: a record that matches a tag is counted as a hit.
  static std::size_t WayOf(const CacheSet& set, u32 tag);
  /// Counts a record of a cached pattern and returns true; false on a miss.
  bool CacheHitLocked(u64 hash);
  /// Offers a missed key to its set (HeavyKeeper decay, see the .cpp);
  /// \p first_record: the filter has just met the key for the first time.
  void CacheAdmitLocked(const PatternKey& key, const QueryResult& result,
                        bool first_record);
  bool CacheFindLocked(const PatternKey& key, QueryResult* out);
  /// Inserts \p hash into the membership filter; true only when newly
  /// inserted (false when already present or the filter is at capacity).
  bool SeenInsertLocked(u64 hash);
  bool SeenContainsLocked(u64 hash) const;
  std::size_t CmsBucket(u64 hash, std::size_t row) const;

  DegradedTierOptions options_;
  mutable std::mutex mu_;

  /// Set-associative answer cache; both empty = disabled.
  std::vector<CacheSet, CacheAlignedAllocator<CacheSet>> sets_;
  std::vector<CachePayload, CacheAlignedAllocator<CachePayload>> payloads_;
  std::size_t cache_size_ = 0;  ///< Non-empty ways.
  /// SplitMix64 state of the decay coin; reset by Clear().
  u64 coin_state_ = 0;

  /// Single-insertion membership filter: open-addressed key-hash set.
  std::vector<u64> seen_;
  std::size_t seen_size_ = 0;
  std::size_t seen_cap_ = 0;  ///< Admission stops here (~7/8 of slots).

  /// Utility / occurrence count-min arrays, width_ * depth_ each.
  std::size_t width_ = 0;
  std::size_t depth_ = 0;
  double epsilon_ = 0;
  std::vector<u64> row_seeds_;
  std::vector<double> cms_utility_;
  std::vector<u32> cms_occurrences_;
  double sketch_mass_ = 0;

  /// Bumped by Clear() under mu_; read lock-free by recorders.
  std::atomic<u64> epoch_{0};

  u64 records_ = 0;
  std::atomic<u64> record_drops_{0};  ///< Bumped without the lock held.
  u64 stale_drops_ = 0;
  u64 lookups_ = 0;
  u64 cache_hits_ = 0;
  u64 sketch_answers_ = 0;
  u64 unanswered_ = 0;
};

}  // namespace usi

#endif  // USI_CORE_DEGRADED_TIER_HPP_
