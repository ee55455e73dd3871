#include "usi/core/degraded_tier.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "usi/util/rng.hpp"

namespace usi {
namespace {

/// Base of the CMS epsilon (the classic w = ceil(e / eps) sizing).
constexpr double kEuler = 2.718281828459045;

std::size_t RoundUpPow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// KeyFor's lane arithmetic (64-bit multiply-rotate rounds).
constexpr u64 kKeyPrime1 = 0x9E3779B185EBCA87ULL;
constexpr u64 kKeyPrime2 = 0xC2B2AE3D27D4EB4FULL;

u64 Load64(const Symbol* p) {
  u64 word;
  std::memcpy(&word, p, sizeof word);
  return word;
}

u64 Rotl(u64 x, int r) { return (x << r) | (x >> (64 - r)); }

/// Records between a key's prefetch and its update in RecordExactBatch.
constexpr std::size_t kPrefetchAhead = 8;

/// HeavyKeeper's decay base b (1.08, as in the HeavyKeeper paper and the
/// kit's DecaySketch): a way whose count is c loses one count to a missing
/// newcomer with probability b^-c.
constexpr double kDecayBase = 1.08;

/// b^-c as a 32-bit coin threshold, for every count whose threshold is
/// non-zero (b^-289 * 2^32 < 1): a larger count never decays.
constexpr std::size_t kDecayCounts = 289;
constexpr std::array<u32, kDecayCounts> kDecayThreshold = [] {
  std::array<u32, kDecayCounts> table{};
  double p = 1.0;
  for (std::size_t c = 0; c < kDecayCounts; ++c) {
    const double scaled = p * 4294967296.0;
    table[c] = scaled >= 4294967295.0 ? ~u32{0} : static_cast<u32>(scaled);
    p /= kDecayBase;
  }
  return table;
}();

/// Absorbs one word into a lane. Bijective in both the lane and the word,
/// so a changed word always leaves a changed lane.
u64 KeyRound(u64 lane, u64 word) {
  return Rotl(lane + word * kKeyPrime2, 31) * kKeyPrime1;
}

}  // namespace

DegradedTier::DegradedTier(const DegradedTierOptions& options)
    : options_(options), coin_state_(options.seed) {
  if (options_.cache_capacity > 0) {
    const std::size_t ways =
        RoundUpPow2(std::max(options_.cache_capacity, kWays));
    sets_.resize(ways / kWays);
    payloads_.resize(ways);
  }
  if (options_.sketch_width > 0 && options_.sketch_depth > 0 &&
      options_.max_sketched_keys > 0) {
    width_ = RoundUpPow2(options_.sketch_width);
    depth_ = options_.sketch_depth;
    epsilon_ = kEuler / static_cast<double>(width_);
    u64 seed_state = options_.seed;
    row_seeds_.resize(depth_);
    for (std::size_t row = 0; row < depth_; ++row) {
      row_seeds_[row] = Rng::SplitMix64(&seed_state);
    }
    cms_utility_.assign(width_ * depth_, 0.0);
    cms_occurrences_.assign(width_ * depth_, 0);
    seen_.assign(RoundUpPow2(options_.max_sketched_keys) * 2, 0);
    seen_cap_ = seen_.size() - seen_.size() / 8;  // stop at 7/8 occupancy
  }
}

PatternKey DegradedTier::KeyFor(std::span<const Symbol> pattern) {
  // Four independent lanes over 8-byte words (word k feeds lane k % 4), so
  // consecutive rounds do not wait on each other's multiplies. The tier
  // only needs identity consistent with itself, not the index's Karp-Rabin
  // fingerprints.
  const Symbol* p = pattern.data();
  const std::size_t n = pattern.size();
  u64 lanes[4] = {kKeyPrime1 + kKeyPrime2, kKeyPrime2, 0, 0 - kKeyPrime1};
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    lanes[0] = KeyRound(lanes[0], Load64(p + i));
    lanes[1] = KeyRound(lanes[1], Load64(p + i + 8));
    lanes[2] = KeyRound(lanes[2], Load64(p + i + 16));
    lanes[3] = KeyRound(lanes[3], Load64(p + i + 24));
  }
  std::size_t lane = 0;
  for (; i + 8 <= n; i += 8, ++lane) {
    lanes[lane] = KeyRound(lanes[lane], Load64(p + i));
  }
  if (i < n) {
    // 1-7 tail bytes packed into one word without a variable-length copy:
    // two overlapping 4-byte loads, or bytes 0, r/2 and r-1 of a shorter
    // tail. Either packing covers every tail byte, so for a fixed length
    // (mixed in below) distinct tails give distinct words.
    const std::size_t r = n - i;
    const Symbol* t = p + i;
    u64 tail;
    if (r >= 4) {
      u32 lo, hi;
      std::memcpy(&lo, t, sizeof lo);
      std::memcpy(&hi, t + r - 4, sizeof hi);
      tail = u64{lo} | (u64{hi} << 32);
    } else {
      tail = u64{t[0]} | (u64{t[r / 2]} << 8) | (u64{t[r - 1]} << 16);
    }
    lanes[lane] = KeyRound(lanes[lane], tail);
  }
  u64 state = Rotl(lanes[0], 1) + Rotl(lanes[1], 7) + Rotl(lanes[2], 12) +
              Rotl(lanes[3], 18) + static_cast<u64>(n) * kKeyPrime2;
  return PatternKey{Rng::SplitMix64(&state), static_cast<u32>(n)};
}

std::size_t DegradedTier::CmsBucket(u64 hash, std::size_t row) const {
  return (Rng::Mix(hash, row_seeds_[row]) & (width_ - 1)) + row * width_;
}

void DegradedTier::RecordExact(const PatternKey& key,
                               const QueryResult& result) {
  // The record path rides on every exactly-served query: never queue behind
  // the lock, drop the update instead (the tier is telemetry, not truth).
  if (!mu_.try_lock()) {
    record_drops_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::lock_guard<std::mutex> lock(mu_, std::adopt_lock);
  RecordLocked(key, result);
}

void DegradedTier::RecordExactBatch(std::span<const PatternSpan> patterns,
                                    std::span<const QueryResult> results,
                                    u64 epoch) {
  USI_DCHECK(results.size() >= patterns.size());
  PatternKey keys[kRecordChunk];
  for (std::size_t begin = 0; begin < patterns.size(); begin += kRecordChunk) {
    const std::size_t n = std::min(kRecordChunk, patterns.size() - begin);
    // Hashing needs no shared state: do it before touching the lock so the
    // critical section is only the tier update.
    for (std::size_t j = 0; j < n; ++j) keys[j] = KeyFor(patterns[begin + j]);
    if (!mu_.try_lock()) {
      record_drops_.fetch_add(n, std::memory_order_relaxed);
      continue;
    }
    std::lock_guard<std::mutex> lock(mu_, std::adopt_lock);
    if (epoch != epoch_.load(std::memory_order_relaxed)) {
      // Learned from content a Clear() has since retired: these answers
      // (and every later chunk's) would be replayed against the new content.
      stale_drops_ += patterns.size() - begin;
      return;
    }
    // Prefetch only now that the chunk will certainly be applied: the lines
    // are ours until unlock, and a dropped chunk costs no cache traffic.
    // Prefetches run kPrefetchAhead records ahead, so a key's lines arrive
    // while earlier keys are applied.
    for (std::size_t j = 0; j < std::min(n, kPrefetchAhead); ++j) {
      PrefetchLocked(keys[j].fp);
    }
    for (std::size_t j = 0; j < n; ++j) {
      if (j + kPrefetchAhead < n) PrefetchLocked(keys[j + kPrefetchAhead].fp);
      RecordLocked(keys[j], results[begin + j]);
    }
  }
}

void DegradedTier::RecordLocked(const PatternKey& key,
                                const QueryResult& result) {
  ++records_;
  // Every cached pattern was offered to the filter when the cache admitted
  // it, so a cache hit skips the filter.
  if (!sets_.empty() && CacheHitLocked(key.fp)) return;
  // Sketch rung: each distinct pattern's utility enters the count-min
  // arrays exactly once (the filter enforces it), preserving the classic
  // additive-overestimate bound relative to the inserted mass. Negative
  // utilities would break the one-sided guarantee, so they stay cache-only.
  const bool first_record =
      width_ != 0 && result.utility >= 0 && SeenInsertLocked(key.fp);
  if (first_record) {
    for (std::size_t row = 0; row < depth_; ++row) {
      const std::size_t bucket = CmsBucket(key.fp, row);
      cms_utility_[bucket] += result.utility;
      cms_occurrences_[bucket] += static_cast<u32>(result.occurrences);
    }
    sketch_mass_ += result.utility;
  }
  if (!sets_.empty()) CacheAdmitLocked(key, result, first_record);
}

void DegradedTier::PrefetchLocked(u64 hash) const {
  if (!sets_.empty()) __builtin_prefetch(&sets_[SetOf(hash)], 1);
  // A full filter admits nothing, so RecordLocked never reads it.
  if (width_ != 0 && seen_size_ < seen_cap_) {
    __builtin_prefetch(&seen_[(hash == 0 ? 1 : hash) & (seen_.size() - 1)]);
  }
}

bool DegradedTier::TryAnswer(const PatternKey& key, QueryResult* out) {
  std::lock_guard<std::mutex> lock(mu_);
  ++lookups_;
  if (!sets_.empty() && CacheFindLocked(key, out)) {
    out->from_hash_table = false;
    out->provenance = AnswerProvenance::kCached;
    out->error_bound = 0;
    ++cache_hits_;
    return true;
  }
  if (width_ != 0 && SeenContainsLocked(key.fp)) {
    double utility = cms_utility_[CmsBucket(key.fp, 0)];
    u32 occurrences = cms_occurrences_[CmsBucket(key.fp, 0)];
    for (std::size_t row = 1; row < depth_; ++row) {
      const std::size_t bucket = CmsBucket(key.fp, row);
      utility = std::min(utility, cms_utility_[bucket]);
      occurrences = std::min(occurrences, cms_occurrences_[bucket]);
    }
    out->utility = utility;
    out->occurrences = static_cast<index_t>(occurrences);
    out->from_hash_table = false;
    out->provenance = AnswerProvenance::kApproximate;
    out->error_bound = epsilon_ * sketch_mass_;
    ++sketch_answers_;
    return true;
  }
  ++unanswered_;
  return false;
}

std::size_t DegradedTier::WayOf(const CacheSet& set, u32 tag) {
  // Branch-free: which way matches is as unpredictable as the key.
  unsigned match = 0;
  for (std::size_t way = 0; way < kWays; ++way) {
    match |= static_cast<unsigned>(set.tags[way] == tag && set.counts[way] != 0)
             << way;
  }
  return match == 0 ? kWays : static_cast<std::size_t>(std::countr_zero(match));
}

bool DegradedTier::CacheHitLocked(u64 hash) {
  // Only the set line is read: a record trusts the 32-bit tag. A tag shared
  // by two patterns of one set (odds ~2^-29 per record) credits the
  // newcomer's record to the resident and skips the newcomer's filter
  // insert. That costs a little learning, never a wrong answer: lookups
  // confirm the whole key against the payload.
  CacheSet& set = sets_[SetOf(hash)];
  const std::size_t way = WayOf(set, TagOf(hash));
  if (way == kWays) return false;
  if (set.counts[way] != kMaxCount) ++set.counts[way];
  return true;
}

void DegradedTier::CacheAdmitLocked(const PatternKey& key,
                                    const QueryResult& result,
                                    bool first_record) {
  // HeavyKeeper within the set: the newcomer takes an empty way, or else
  // decays the least-popular way with probability b^-count and takes it
  // once that count reaches zero. The least-popular way is picked at random
  // among ties, so a newcomer survives several misses, long enough to be
  // hit again if it is hot. The filter's answer refines this: a pattern
  // met for the first time only fills an empty way (one-off patterns, most
  // of a cold tail, never wear down the counts of patterns that repeat),
  // and any other newcomer starts at count 2, the records known for it
  // (the filter has seen it before, or is full and cannot say).
  const std::size_t set_index = SetOf(key.fp);
  CacheSet& set = sets_[set_index];
  u32 least = set.counts[0];
  for (std::size_t w = 1; w < kWays; ++w) least = std::min(least, set.counts[w]);
  if (least != 0 && first_record) return;
  const u64 coin = Rng::SplitMix64(&coin_state_);
  unsigned ties = 0;
  for (std::size_t w = 0; w < kWays; ++w) {
    ties |= static_cast<unsigned>(set.counts[w] == least) << w;
  }
  // The first least-count way at or after a random way.
  const unsigned start = coin & (kWays - 1);
  const unsigned rotated =
      ((ties >> start) | (ties << (kWays - start))) & ((1u << kWays) - 1);
  const std::size_t way = (start + std::countr_zero(rotated)) & (kWays - 1);
  u32& count = set.counts[way];
  if (count == 0) {
    ++cache_size_;
  } else {
    const u32 threshold = count < kDecayCounts ? kDecayThreshold[count] : 0;
    if (static_cast<u32>(coin >> 32) >= threshold || --count != 0) return;
  }
  count = first_record ? 1 : 2;
  set.tags[way] = TagOf(key.fp);
  payloads_[set_index * kWays + way] =
      CachePayload{key.fp, result.utility, key.len, result.occurrences};
}

bool DegradedTier::CacheFindLocked(const PatternKey& key, QueryResult* out) {
  const std::size_t set_index = SetOf(key.fp);
  CacheSet& set = sets_[set_index];
  const std::size_t way = WayOf(set, TagOf(key.fp));
  if (way == kWays) return false;
  const CachePayload& payload = payloads_[set_index * kWays + way];
  if (payload.fp != key.fp || payload.len != key.len) return false;
  // Degraded traffic is still popularity evidence: keep the admission
  // signal learning even while the exact path is dark.
  if (set.counts[way] != kMaxCount) ++set.counts[way];
  out->utility = payload.utility;
  out->occurrences = payload.occurrences;
  return true;
}

bool DegradedTier::SeenInsertLocked(u64 hash) {
  // Filter full: stop learning. Checked before the probe because the
  // answer is false either way, and at the cap an absent key's probe run
  // is long.
  if (seen_size_ >= seen_cap_) return false;
  if (hash == 0) hash = 1;  // 0 marks an empty filter slot.
  const std::size_t mask = seen_.size() - 1;
  std::size_t slot = static_cast<std::size_t>(hash) & mask;
  while (seen_[slot] != 0) {
    if (seen_[slot] == hash) return false;  // Already sketched.
    slot = (slot + 1) & mask;
  }
  seen_[slot] = hash;
  ++seen_size_;
  return true;
}

bool DegradedTier::SeenContainsLocked(u64 hash) const {
  if (hash == 0) hash = 1;
  const std::size_t mask = seen_.size() - 1;
  std::size_t slot = static_cast<std::size_t>(hash) & mask;
  while (seen_[slot] != 0) {
    if (seen_[slot] == hash) return true;
    slot = (slot + 1) & mask;
  }
  return false;
}

void DegradedTier::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  // An empty way is one whose count is zero: the payloads need no reset.
  std::fill(sets_.begin(), sets_.end(), CacheSet{});
  cache_size_ = 0;
  coin_state_ = options_.seed;
  std::fill(seen_.begin(), seen_.end(), 0);
  seen_size_ = 0;
  std::fill(cms_utility_.begin(), cms_utility_.end(), 0.0);
  std::fill(cms_occurrences_.begin(), cms_occurrences_.end(), 0);
  sketch_mass_ = 0;
  epoch_.fetch_add(1, std::memory_order_release);
}

DegradedTierStats DegradedTier::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  DegradedTierStats stats;
  stats.cache_capacity = payloads_.size();
  stats.cache_size = cache_size_;
  stats.records = records_;
  stats.record_drops = record_drops_.load(std::memory_order_relaxed);
  stats.stale_drops = stale_drops_;
  stats.lookups = lookups_;
  stats.cache_hits = cache_hits_;
  stats.sketch_answers = sketch_answers_;
  stats.unanswered = unanswered_;
  stats.sketch_width = width_;
  stats.sketch_depth = depth_;
  stats.epsilon = epsilon_;
  stats.sketched_keys = seen_size_;
  stats.max_sketched_keys = seen_cap_;
  stats.sketch_mass = sketch_mass_;
  return stats;
}

std::size_t DegradedTier::SizeInBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sets_.capacity() * sizeof(CacheSet) +
         payloads_.capacity() * sizeof(CachePayload) +
         seen_.capacity() * sizeof(u64) +
         cms_utility_.capacity() * sizeof(double) +
         cms_occurrences_.capacity() * sizeof(u32) +
         row_seeds_.capacity() * sizeof(u64);
}

}  // namespace usi
