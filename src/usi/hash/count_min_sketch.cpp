#include "usi/hash/count_min_sketch.hpp"

#include <algorithm>
#include <cmath>

namespace usi {

CountMinSketch::CountMinSketch(std::size_t width, std::size_t depth, u64 seed)
    : width_(width), depth_(depth) {
  USI_CHECK(width >= 1 && depth >= 1);
  seeds_.resize(depth);
  for (std::size_t row = 0; row < depth; ++row) {
    seeds_[row] = Rng::Mix(seed, row + 1);
  }
  counters_.assign(width * depth, 0);
}

void CountMinSketch::Add(u64 key, u32 amount) {
  for (std::size_t row = 0; row < depth_; ++row) {
    counters_[Bucket(key, row)] += amount;
  }
}

u32 CountMinSketch::Estimate(u64 key) const {
  u32 best = ~u32{0};
  for (std::size_t row = 0; row < depth_; ++row) {
    best = std::min(best, counters_[Bucket(key, row)]);
  }
  return best;
}

DecaySketch::DecaySketch(std::size_t width, std::size_t depth,
                         double decay_base, u64 seed)
    : width_(width),
      pow2_width_((width & (width - 1)) == 0),
      depth_(depth),
      decay_base_(decay_base),
      seed_(seed),
      rng_(seed) {
  USI_CHECK(width >= 1 && depth >= 1);
  USI_CHECK(decay_base > 1.0);
  seeds_.resize(depth);
  for (std::size_t row = 0; row < depth; ++row) {
    seeds_[row] = Rng::Mix(seed, row + 0x51);
  }
  buckets_.assign(width * depth, Bucket{});
  // Inserts decay on (almost) every collision; precompute b^-c for the hot
  // small counts so std::pow stays off the scan path.
  for (u32 c = 0; c < kDecayTableSize; ++c) {
    decay_table_[c] = std::pow(decay_base_, -static_cast<double>(c));
  }
}

void DecaySketch::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), Bucket{});
  rng_.Reseed(seed_);
}

u32 DecaySketch::Insert(u64 key) {
  u32 best = 0;
  for (std::size_t row = 0; row < depth_; ++row) {
    Bucket& bucket = buckets_[Index(key, row)];
    if (bucket.count == 0 || bucket.fp == key) {
      bucket.fp = key;
      ++bucket.count;
      best = std::max(best, bucket.count);
    } else {
      // Exponential decay: evict the incumbent with probability b^-count.
      if (rng_.Bernoulli(DecayProbability(bucket.count))) {
        if (--bucket.count == 0) {
          bucket.fp = key;
          bucket.count = 1;
          best = std::max(best, bucket.count);
        }
      }
    }
  }
  return best;
}

double DecaySketch::DecayProbability(u32 count) {
  if (count < kDecayTableSize) return decay_table_[count];
  return std::pow(decay_base_, -static_cast<double>(count));
}

u32 DecaySketch::Estimate(u64 key) const {
  u32 best = 0;
  for (std::size_t row = 0; row < depth_; ++row) {
    const Bucket& bucket = buckets_[Index(key, row)];
    if (bucket.fp == key) best = std::max(best, bucket.count);
  }
  return best;
}

}  // namespace usi
