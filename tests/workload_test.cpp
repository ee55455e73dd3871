// Tests for the W1 / W2,p / Zipf workload generators.

#include <algorithm>
#include <string>
#include <unordered_map>

#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "usi/core/workload.hpp"
#include "usi/topk/substring_stats.hpp"
#include "usi/text/generators.hpp"

namespace usi {
namespace {

struct WorkloadFixture {
  Text text;
  TopKList pool_w1;
  TopKList pool_w2;

  WorkloadFixture() {
    text = MakeAdvLike(5000, 3).text();
    SubstringStats stats(text);
    pool_w1 = stats.TopK(text.size() / 50);
    pool_w2 = stats.TopK(text.size() / 100);
  }
};

TEST(Workload, W1HasRequestedSize) {
  WorkloadFixture fx;
  WorkloadOptions options;
  options.num_queries = 500;
  options.random_max_len = 50;
  const Workload w = MakeWorkloadW1(fx.text, fx.pool_w1.items, options);
  EXPECT_EQ(w.patterns.size(), 500u);
  EXPECT_EQ(w.from_frequent + w.random_substrings, 500u);
}

TEST(Workload, W1IsDeterministic) {
  WorkloadFixture fx;
  WorkloadOptions options;
  options.num_queries = 200;
  options.random_max_len = 30;
  const Workload a = MakeWorkloadW1(fx.text, fx.pool_w1.items, options);
  const Workload b = MakeWorkloadW1(fx.text, fx.pool_w1.items, options);
  EXPECT_EQ(a.patterns, b.patterns);
}

TEST(Workload, W1FrequentFractionRoughlyHolds) {
  WorkloadFixture fx;
  WorkloadOptions options;
  options.num_queries = 2000;
  options.frequent_fraction = 0.9;
  options.random_max_len = 40;
  const Workload w = MakeWorkloadW1(fx.text, fx.pool_w1.items, options);
  // 90% direct + ~half of the remaining 10%: ~95% total from the pool.
  const double fraction =
      static_cast<double>(w.from_frequent) / w.patterns.size();
  EXPECT_GT(fraction, 0.9);
  EXPECT_LT(fraction, 0.99);
}

TEST(Workload, AllPatternsOccurInText) {
  WorkloadFixture fx;
  WorkloadOptions options;
  options.num_queries = 300;
  options.random_max_len = 20;
  const Workload w = MakeWorkloadW1(fx.text, fx.pool_w1.items, options);
  for (const Text& pattern : w.patterns) {
    ASSERT_FALSE(testing::BruteOccurrences(fx.text, pattern).empty());
  }
}

TEST(Workload, PatternLengthsWithinBounds) {
  WorkloadFixture fx;
  WorkloadOptions options;
  options.num_queries = 500;
  options.random_min_len = 2;
  options.random_max_len = 17;
  options.frequent_fraction = 0.0;  // All random.
  const Workload w = MakeWorkloadW1(fx.text, {}, options);
  for (const Text& pattern : w.patterns) {
    EXPECT_GE(pattern.size(), 2u);
    EXPECT_LE(pattern.size(), 17u);
  }
}

TEST(Workload, W2IncreasingPMeansMoreFrequentQueries) {
  WorkloadFixture fx;
  WorkloadOptions options;
  options.num_queries = 1500;
  options.random_max_len = 40;
  std::size_t last_frequent = 0;
  for (u32 p : {20u, 80u}) {
    const Workload w = MakeWorkloadW2(fx.text, fx.pool_w2.items,
                                      fx.pool_w1.items, p, options);
    EXPECT_EQ(w.patterns.size(), 1500u);
    EXPECT_GT(w.from_frequent, last_frequent);
    last_frequent = w.from_frequent;
  }
}

TEST(Workload, W2PatternsComeFromText) {
  WorkloadFixture fx;
  WorkloadOptions options;
  options.num_queries = 200;
  options.random_max_len = 25;
  const Workload w =
      MakeWorkloadW2(fx.text, fx.pool_w2.items, fx.pool_w1.items, 40, options);
  for (const Text& pattern : w.patterns) {
    ASSERT_FALSE(testing::BruteOccurrences(fx.text, pattern).empty());
  }
}

// ---------------------------------------------------------------------------
// Zipf / skewed hot-pattern generator (satellite of the degradation PR: the
// traffic shape hot-pattern caches and tier admission are exercised with).

/// How often the workload's most frequent pattern occurs.
std::size_t HottestPatternCount(const Workload& w) {
  std::unordered_map<std::string, std::size_t> counts;
  std::size_t top = 0;
  for (const Text& p : w.patterns) {
    top = std::max(top, ++counts[std::string(p.begin(), p.end())]);
  }
  return top;
}

TEST(Workload, ZipfHasRequestedSizeAndIsDeterministic) {
  WorkloadFixture fx;
  ZipfWorkloadOptions options;
  options.num_queries = 800;
  const Workload a = MakeWorkloadZipf(fx.text, options);
  const Workload b = MakeWorkloadZipf(fx.text, options);
  EXPECT_EQ(a.patterns.size(), 800u);
  EXPECT_EQ(a.from_frequent + a.random_substrings, 800u);
  EXPECT_EQ(a.patterns, b.patterns);
}

TEST(Workload, ZipfPatternsOccurInTextWithinLengthBounds) {
  WorkloadFixture fx;
  ZipfWorkloadOptions options;
  options.num_queries = 300;
  options.min_len = 3;
  options.max_len = 24;
  const Workload w = MakeWorkloadZipf(fx.text, options);
  for (const Text& pattern : w.patterns) {
    EXPECT_GE(pattern.size(), 3u);
    EXPECT_LE(pattern.size(), 24u);
    ASSERT_FALSE(testing::BruteOccurrences(fx.text, pattern).empty());
  }
}

TEST(Workload, ZipfHotFractionRoughlyHolds) {
  WorkloadFixture fx;
  ZipfWorkloadOptions options;
  options.num_queries = 4000;
  options.hot_fraction = 0.9;
  const Workload w = MakeWorkloadZipf(fx.text, options);
  const double fraction =
      static_cast<double>(w.from_frequent) / w.patterns.size();
  EXPECT_GT(fraction, 0.85);
  EXPECT_LT(fraction, 0.95);
}

TEST(Workload, ZipfSkewConcentratesTrafficOnTopRanks) {
  WorkloadFixture fx;
  ZipfWorkloadOptions options;
  options.num_queries = 6000;
  options.pool_size = 256;
  options.hot_fraction = 1.0;  // Pure pool traffic isolates the skew.

  // Higher exponents concentrate more of the traffic on the hottest
  // pattern; s = 0 degenerates to uniform over the pool.
  std::size_t last_top = 0;
  for (const double s : {0.0, 1.0, 1.5}) {
    options.s = s;
    const Workload w = MakeWorkloadZipf(fx.text, options);
    const std::size_t top = HottestPatternCount(w);
    EXPECT_GT(top, last_top) << "s=" << s;
    last_top = top;
  }
  // At s = 1.5 the head dominates: the hottest pattern alone draws a large
  // multiple of the uniform share (6000 / 256 ~ 23).
  EXPECT_GT(last_top, 1000u);
}

}  // namespace
}  // namespace usi
