#ifndef USI_HASH_COUNT_MIN_SKETCH_HPP_
#define USI_HASH_COUNT_MIN_SKETCH_HPP_

/// \file count_min_sketch.hpp
/// Count-min sketch [23] and the HeavyKeeper exponential-decay sketch [24].
///
/// The plain sketch backs baseline BSL4 (space-efficient top-K-seen-so-far,
/// Section IX-C). The decay sketch is the "count-with-exponential-decay"
/// structure at the heart of HeavyKeeper, reused by SubstringHK (Section
/// VII): a bucket holds (fingerprint, count); colliding inserts decay the
/// incumbent with probability b^-count and capture the bucket when the count
/// hits zero.

#include <vector>

#include "usi/util/common.hpp"
#include "usi/util/rng.hpp"

namespace usi {

/// Classic count-min sketch with conservative update option.
class CountMinSketch {
 public:
  /// \p width buckets per row, \p depth rows.
  CountMinSketch(std::size_t width, std::size_t depth, u64 seed = 0xC3C3);

  /// Adds \p amount to \p key's counters.
  void Add(u64 key, u32 amount = 1);

  /// Point estimate (min over rows); never under-estimates.
  u32 Estimate(u64 key) const;

  /// Heap footprint in bytes.
  std::size_t SizeInBytes() const { return counters_.capacity() * sizeof(u32); }

 private:
  std::size_t Bucket(u64 key, std::size_t row) const {
    return (Rng::Mix(key, seeds_[row]) % width_) + row * width_;
  }

  std::size_t width_;
  std::size_t depth_;
  std::vector<u64> seeds_;
  std::vector<u32> counters_;
};

/// HeavyKeeper's decayed-count sketch: each bucket stores the fingerprint of
/// the item currently owning it plus a count. An insert of a different item
/// decays the count with probability b^-count; at zero the new item captures
/// the bucket with count 1.
class DecaySketch {
 public:
  /// \p decay_base is the paper's b (1.08 by default, as in [24]).
  DecaySketch(std::size_t width, std::size_t depth, double decay_base = 1.08,
              u64 seed = 0xDECA1);

  /// Inserts one occurrence of \p key; returns the updated estimate.
  u32 Insert(u64 key);

  /// Max-over-rows estimate for \p key (0 if it owns no bucket).
  u32 Estimate(u64 key) const;

  /// Issues a prefetch for every bucket \p key maps to (one per row), so a
  /// batch of inserts can overlap their cache misses. No state change.
  void Prefetch(u64 key) const {
    for (std::size_t row = 0; row < depth_; ++row) {
      __builtin_prefetch(&buckets_[Index(key, row)], 1);
    }
  }

  /// Returns the sketch to its freshly-constructed state (empty buckets,
  /// decay coin re-seeded) without reallocating or recomputing the decay
  /// table: a Reset sketch and a new one with the same arguments behave
  /// identically on any insert stream.
  void Reset();

  /// Heap footprint in bytes.
  std::size_t SizeInBytes() const { return buckets_.capacity() * sizeof(Bucket); }

 private:
  struct Bucket {
    u64 fp = 0;
    u32 count = 0;
  };
  static constexpr u32 kDecayTableSize = 256;

  /// Power-of-two widths map with a mask (h % 2^k == h & (2^k - 1), so the
  /// bucket choice is the same as the modulo's, minus a 64-bit division).
  std::size_t Index(u64 key, std::size_t row) const {
    const u64 h = Rng::Mix(key, seeds_[row]);
    return static_cast<std::size_t>(pow2_width_ ? h & (width_ - 1)
                                                : h % width_) +
           row * width_;
  }

  /// b^-count, from the precomputed table for small counts.
  double DecayProbability(u32 count);

  std::size_t width_;
  bool pow2_width_;  ///< Index masks instead of dividing.
  std::size_t depth_;
  double decay_base_;
  u64 seed_;
  std::vector<u64> seeds_;
  std::vector<Bucket> buckets_;
  Rng rng_;
  double decay_table_[kDecayTableSize];
};

}  // namespace usi

#endif  // USI_HASH_COUNT_MIN_SKETCH_HPP_
