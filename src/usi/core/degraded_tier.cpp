#include "usi/core/degraded_tier.hpp"

#include <algorithm>
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

/// Absorbs one word into a lane. Bijective in both the lane and the word,
/// so a changed word always leaves a changed lane.
u64 KeyRound(u64 lane, u64 word) {
  return Rotl(lane + word * kKeyPrime2, 31) * kKeyPrime1;
}

}  // namespace

DegradedTier::DegradedTier(const DegradedTierOptions& options)
    : options_(options),
      // Popularity only steers cache admission, so its geometry tracks the
      // cache: enough buckets that hot patterns rarely fight for one.
      popularity_(std::max<std::size_t>(64, options.cache_capacity * 2), 2,
                  1.08, options.seed ^ 0x9E3779B97F4A7C15ULL) {
  if (options_.cache_capacity > 0) {
    cache_.resize(RoundUpPow2(options_.cache_capacity));
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
  const u64 hash = HashPatternKey(key);
  // The record path rides on every exactly-served query: never queue behind
  // the lock, drop the update instead (the tier is telemetry, not truth).
  if (!mu_.try_lock()) {
    record_drops_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::lock_guard<std::mutex> lock(mu_, std::adopt_lock);
  RecordLocked(key, hash, result);
}

void DegradedTier::RecordExactBatch(std::span<const PatternSpan> patterns,
                                    std::span<const QueryResult> results,
                                    u64 epoch) {
  USI_DCHECK(results.size() >= patterns.size());
  PatternKey keys[kRecordChunk];
  u64 hashes[kRecordChunk];
  for (std::size_t begin = 0; begin < patterns.size(); begin += kRecordChunk) {
    const std::size_t n = std::min(kRecordChunk, patterns.size() - begin);
    // Hashing needs no shared state: do it before touching the lock so the
    // critical section is only the tier update.
    for (std::size_t j = 0; j < n; ++j) {
      keys[j] = KeyFor(patterns[begin + j]);
      hashes[j] = HashPatternKey(keys[j]);
    }
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
    for (std::size_t j = 0; j < n; ++j) PrefetchLocked(hashes[j]);
    for (std::size_t j = 0; j < n; ++j) {
      RecordLocked(keys[j], hashes[j], results[begin + j]);
    }
  }
}

void DegradedTier::RecordLocked(const PatternKey& key, u64 hash,
                                const QueryResult& result) {
  ++records_;
  const u32 popularity = popularity_.Insert(hash);
  if (!cache_.empty()) CacheUpsertLocked(key, hash, result, popularity);
  // Sketch rung: each distinct pattern's utility enters the count-min
  // arrays exactly once (the filter enforces it), preserving the classic
  // additive-overestimate bound relative to the inserted mass. Negative
  // utilities would break the one-sided guarantee, so they stay cache-only.
  if (width_ != 0 && result.utility >= 0 && SeenInsertLocked(hash)) {
    for (std::size_t row = 0; row < depth_; ++row) {
      const std::size_t bucket = CmsBucket(hash, row);
      cms_utility_[bucket] += result.utility;
      cms_occurrences_[bucket] += static_cast<u32>(result.occurrences);
    }
    sketch_mass_ += result.utility;
  }
}

void DegradedTier::PrefetchLocked(u64 hash) const {
  popularity_.Prefetch(hash);
  if (!cache_.empty()) {
    // 32-byte slots on a 64-byte-aligned array: slots w and w+1 share a
    // line for even absolute positions, so touching window offsets
    // 0, 2, 4, 6 and 7 reaches every line of the window whatever its
    // parity (and wraps like the probe does).
    const std::size_t mask = cache_.size() - 1;
    const std::size_t base = hash & mask;
    const std::size_t window = std::min(kProbeWindow, cache_.size());
    for (std::size_t w = 0; w < window; w += 2) {
      __builtin_prefetch(&cache_[(base + w) & mask], 1);
    }
    __builtin_prefetch(&cache_[(base + window - 1) & mask], 1);
  }
  if (width_ != 0) {
    const u64 slot_hash = hash == 0 ? 1 : hash;
    __builtin_prefetch(&seen_[slot_hash & (seen_.size() - 1)]);
  }
}

bool DegradedTier::TryAnswer(const PatternKey& key, QueryResult* out) {
  const u64 hash = HashPatternKey(key);
  std::lock_guard<std::mutex> lock(mu_);
  ++lookups_;
  // Degraded traffic is still popularity evidence: keep the admission
  // signal learning even while the exact path is dark.
  const u32 popularity = popularity_.Insert(hash);
  (void)popularity;
  if (!cache_.empty() && CacheFindLocked(key, hash, out)) {
    out->from_hash_table = false;
    out->provenance = AnswerProvenance::kCached;
    out->error_bound = 0;
    ++cache_hits_;
    return true;
  }
  if (width_ != 0 && SeenContainsLocked(hash)) {
    double utility = cms_utility_[CmsBucket(hash, 0)];
    u32 occurrences = cms_occurrences_[CmsBucket(hash, 0)];
    for (std::size_t row = 1; row < depth_; ++row) {
      const std::size_t bucket = CmsBucket(hash, row);
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

void DegradedTier::CacheUpsertLocked(const PatternKey& key, u64 hash,
                                     const QueryResult& result,
                                     u32 popularity) {
  const std::size_t mask = cache_.size() - 1;
  const std::size_t base = hash & mask;
  const std::size_t window = std::min(kProbeWindow, cache_.size());
  std::size_t free_slot = cache_.size();
  std::size_t victim = base;
  u32 victim_popularity = ~u32{0};
  for (std::size_t w = 0; w < window; ++w) {
    const std::size_t slot = (base + w) & mask;
    CacheSlot& entry = cache_[slot];
    if (!entry.used) {
      if (free_slot == cache_.size()) free_slot = slot;
      continue;
    }
    if (entry.fp == key.fp && entry.len == key.len) {
      entry.utility = result.utility;
      entry.occurrences = result.occurrences;
      entry.popularity = std::max(entry.popularity, popularity);
      return;
    }
    if (entry.popularity < victim_popularity) {
      victim_popularity = entry.popularity;
      victim = slot;
    }
  }
  const CacheSlot fresh{key.fp, result.utility, key.len, result.occurrences,
                       popularity, true};
  if (free_slot != cache_.size()) {
    cache_[free_slot] = fresh;
    ++cache_size_;
    return;
  }
  // BSL3/BSL4 admission, windowed: a newcomer only displaces the least
  // popular incumbent of its probe window when it is strictly hotter.
  if (popularity > victim_popularity) cache_[victim] = fresh;
}

bool DegradedTier::CacheFindLocked(const PatternKey& key, u64 hash,
                                   QueryResult* out) {
  const std::size_t mask = cache_.size() - 1;
  const std::size_t base = hash & mask;
  const std::size_t window = std::min(kProbeWindow, cache_.size());
  for (std::size_t w = 0; w < window; ++w) {
    const CacheSlot& entry = cache_[(base + w) & mask];
    if (!entry.used || entry.fp != key.fp || entry.len != key.len) continue;
    out->utility = entry.utility;
    out->occurrences = entry.occurrences;
    return true;
  }
  return false;
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
  std::fill(cache_.begin(), cache_.end(), CacheSlot{});
  cache_size_ = 0;
  std::fill(seen_.begin(), seen_.end(), 0);
  seen_size_ = 0;
  std::fill(cms_utility_.begin(), cms_utility_.end(), 0.0);
  std::fill(cms_occurrences_.begin(), cms_occurrences_.end(), 0);
  sketch_mass_ = 0;
  popularity_.Reset();
  epoch_.fetch_add(1, std::memory_order_release);
}

DegradedTierStats DegradedTier::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  DegradedTierStats stats;
  stats.cache_capacity = cache_.size();
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
  return cache_.capacity() * sizeof(CacheSlot) +
         seen_.capacity() * sizeof(u64) +
         cms_utility_.capacity() * sizeof(double) +
         cms_occurrences_.capacity() * sizeof(u32) +
         row_seeds_.capacity() * sizeof(u64) + popularity_.SizeInBytes();
}

}  // namespace usi
