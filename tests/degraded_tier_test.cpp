// Unit tests for the per-text degradation tier (core/degraded_tier.hpp):
// the cache rung replays exact answers with bound 0, the sketch rung
// answers within its advertised epsilon * mass bound and never
// under-estimates, unknown patterns stay unanswered (kNone at the serving
// layer), Clear forgets learned state, and the telemetry snapshot reports
// the geometry usi_inspect prints. The batch record path must leave the
// tier exactly as the per-answer path does, and its epoch gate must keep
// answers learned before a Clear from ever being replayed (a concurrent
// hammer, labelled "concurrency" for the TSan job).

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "usi/core/degraded_tier.hpp"

namespace usi {
namespace {

using testing::T;

QueryResult Exact(double utility, index_t occurrences) {
  QueryResult result;
  result.utility = utility;
  result.occurrences = occurrences;
  return result;
}

TEST(DegradedTier, KeyForIsDeterministicAndLengthAware) {
  const Text a = T("banana");
  const Text b = T("banana");
  const Text c = T("banan");
  EXPECT_TRUE(DegradedTier::KeyFor(a) == DegradedTier::KeyFor(b));
  EXPECT_FALSE(DegradedTier::KeyFor(a) == DegradedTier::KeyFor(c));
  EXPECT_EQ(DegradedTier::KeyFor(c).len, 5u);
}

TEST(DegradedTier, CacheHitReplaysExactAnswerWithZeroBound) {
  DegradedTier tier;
  const PatternKey key = DegradedTier::KeyFor(T("needle"));
  tier.RecordExact(key, Exact(12.5, 3));

  QueryResult got;
  ASSERT_TRUE(tier.TryAnswer(key, &got));
  EXPECT_EQ(got.provenance, AnswerProvenance::kCached);
  EXPECT_EQ(got.error_bound, 0.0);
  EXPECT_EQ(got.utility, 12.5);
  EXPECT_EQ(got.occurrences, 3u);
  EXPECT_FALSE(got.from_hash_table);

  const DegradedTierStats stats = tier.stats();
  EXPECT_EQ(stats.records, 1u);
  EXPECT_EQ(stats.lookups, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_DOUBLE_EQ(stats.CacheHitRate(), 1.0);
}

TEST(DegradedTier, SketchRungNeverUnderEstimatesAndHonorsBound) {
  // Cache rung disabled: every answer must come from the count-min sketch.
  DegradedTierOptions options;
  options.cache_capacity = 0;
  options.sketch_width = 256;
  options.sketch_depth = 4;
  DegradedTier tier(options);

  Rng rng(0x5EED);
  std::vector<PatternKey> keys;
  std::vector<QueryResult> exact;
  for (int i = 0; i < 2000; ++i) {
    // Unique by construction (the index is encoded in the prefix), so each
    // key has exactly one exact answer to compare against.
    Text pattern = {static_cast<Symbol>(i & 0xFF),
                    static_cast<Symbol>((i >> 8) & 0xFF)};
    const std::size_t len = 1 + rng.UniformBelow(12);
    for (std::size_t j = 0; j < len; ++j) {
      pattern.push_back(static_cast<Symbol>(rng.UniformBelow(8)));
    }
    const PatternKey key = DegradedTier::KeyFor(pattern);
    const QueryResult answer =
        Exact(rng.UniformDouble() * 10.0,
              static_cast<index_t>(1 + rng.UniformBelow(20)));
    tier.RecordExact(key, answer);
    keys.push_back(key);
    exact.push_back(answer);
  }

  const DegradedTierStats stats = tier.stats();
  ASSERT_GT(stats.sketched_keys, 0u);
  ASSERT_GT(stats.sketch_mass, 0.0);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    QueryResult got;
    if (!tier.TryAnswer(keys[i], &got)) continue;  // Duplicate key dropped.
    EXPECT_EQ(got.provenance, AnswerProvenance::kApproximate);
    EXPECT_DOUBLE_EQ(got.error_bound, stats.epsilon * stats.sketch_mass);
    // One-sided CMS guarantee: never below the recorded exact answer. The
    // per-answer over-estimate can exceed the advertised bound only with
    // probability e^-depth; the aggregate check lives in sketch_bounds_test.
    EXPECT_GE(got.utility, exact[i].utility - 1e-9) << i;
    EXPECT_GE(got.occurrences, exact[i].occurrences) << i;
  }
}

TEST(DegradedTier, DuplicateRecordsEnterTheSketchOnce) {
  DegradedTierOptions options;
  options.cache_capacity = 0;
  DegradedTier tier(options);
  const PatternKey key = DegradedTier::KeyFor(T("hot"));
  for (int i = 0; i < 50; ++i) tier.RecordExact(key, Exact(4.0, 2));

  // Single insertion: the mass (and hence the estimate) must not scale
  // with how often the same pattern was served.
  const DegradedTierStats stats = tier.stats();
  EXPECT_EQ(stats.sketched_keys, 1u);
  EXPECT_DOUBLE_EQ(stats.sketch_mass, 4.0);
  QueryResult got;
  ASSERT_TRUE(tier.TryAnswer(key, &got));
  EXPECT_DOUBLE_EQ(got.utility, 4.0);
  EXPECT_EQ(got.occurrences, 2u);
}

TEST(DegradedTier, UnknownPatternStaysUnanswered) {
  DegradedTier tier;
  tier.RecordExact(DegradedTier::KeyFor(T("known")), Exact(1.0, 1));
  QueryResult got;
  got.utility = -7;  // Sentinel: a failed lookup must leave *out untouched.
  EXPECT_FALSE(tier.TryAnswer(DegradedTier::KeyFor(T("stranger")), &got));
  EXPECT_EQ(got.utility, -7.0);
  EXPECT_EQ(tier.stats().unanswered, 1u);
}

TEST(DegradedTier, FullFilterStopsAdmittingButKeepsAnswering) {
  // Cache rung off so the sketch answers; 16 keys round to a 32-slot
  // filter that stops admitting at 7/8 occupancy (28 keys).
  DegradedTierOptions options;
  options.cache_capacity = 0;
  options.max_sketched_keys = 16;
  DegradedTier tier(options);
  std::vector<PatternKey> keys;
  for (int i = 0; i < 64; ++i) {
    keys.push_back(DegradedTier::KeyFor(T("key-" + std::to_string(i))));
    tier.RecordExact(keys.back(), Exact(1.0, 1));
  }

  const DegradedTierStats stats = tier.stats();
  EXPECT_EQ(stats.records, 64u);
  EXPECT_EQ(stats.max_sketched_keys, 28u);
  EXPECT_EQ(stats.sketched_keys, stats.max_sketched_keys);
  // Only admitted keys added mass.
  EXPECT_DOUBLE_EQ(stats.sketch_mass, 28.0);
  for (std::size_t i = 0; i < 4; ++i) {
    QueryResult got;
    ASSERT_TRUE(tier.TryAnswer(keys[i], &got)) << i;
    EXPECT_EQ(got.provenance, AnswerProvenance::kApproximate);
    EXPECT_GE(got.utility, 1.0);
  }
  QueryResult late;
  EXPECT_FALSE(tier.TryAnswer(keys.back(), &late));
  EXPECT_EQ(late.provenance, AnswerProvenance::kExact);  // Untouched.
  EXPECT_EQ(tier.stats().sketched_keys, stats.max_sketched_keys);
}

TEST(DegradedTier, ClearForgetsAnswersButKeepsCounters) {
  DegradedTier tier;
  const PatternKey key = DegradedTier::KeyFor(T("gone"));
  tier.RecordExact(key, Exact(2.0, 1));
  QueryResult got;
  ASSERT_TRUE(tier.TryAnswer(key, &got));

  tier.Clear();
  EXPECT_FALSE(tier.TryAnswer(key, &got))
      << "content changed: stale answers must not survive Clear";
  const DegradedTierStats stats = tier.stats();
  EXPECT_EQ(stats.cache_size, 0u);
  EXPECT_EQ(stats.sketched_keys, 0u);
  EXPECT_DOUBLE_EQ(stats.sketch_mass, 0.0);
  // Telemetry is cumulative across content versions.
  EXPECT_EQ(stats.records, 1u);
  EXPECT_EQ(stats.lookups, 2u);
}

TEST(DegradedTier, PopularPatternsDisplaceColdOnesInTheCache) {
  // A cache far smaller than the key population forces displacement; the
  // BSL3/BSL4 admission rule must keep a heavily-queried pattern resident.
  DegradedTierOptions options;
  options.cache_capacity = 16;
  options.sketch_width = 0;  // Cache rung only.
  DegradedTier tier(options);

  const Text hot_pattern = T("hothothot");
  const PatternKey hot = DegradedTier::KeyFor(hot_pattern);
  Rng rng(0xCAFE);
  for (int round = 0; round < 400; ++round) {
    tier.RecordExact(hot, Exact(9.0, 9));  // Popularity accrues per record.
    Text cold;
    for (int j = 0; j < 6; ++j) {
      cold.push_back(static_cast<Symbol>(rng.UniformBelow(200)));
    }
    tier.RecordExact(DegradedTier::KeyFor(cold),
                     Exact(rng.UniformDouble(), 1));
  }
  QueryResult got;
  EXPECT_TRUE(tier.TryAnswer(hot, &got))
      << "the hot pattern must survive 400 cold insertions";
  EXPECT_EQ(got.provenance, AnswerProvenance::kCached);
  EXPECT_DOUBLE_EQ(got.utility, 9.0);
}

TEST(DegradedTier, ZipfStreamKeepsTheHottestPatternsCached) {
  // Admission quality under skew: a short Zipf(s=1) stream (~20x the
  // cache) over a pool 8x the cache, half of it diluted by never-repeating
  // cold keys, must leave most of the capacity/4 hottest patterns
  // answerable from the cache rung.
  DegradedTierOptions options;
  options.cache_capacity = 1024;
  DegradedTier tier(options);
  const std::size_t pool_size = 8 * options.cache_capacity;
  const std::size_t hottest = options.cache_capacity / 4;

  const auto pattern_of = [](u64 id, u64 salt) {
    Text pattern(4 + id % 9);
    u64 state = id ^ salt;
    for (Symbol& c : pattern) c = static_cast<Symbol>(Rng::SplitMix64(&state));
    return pattern;
  };
  std::vector<double> cdf(pool_size);
  double mass = 0;
  for (std::size_t r = 0; r < pool_size; ++r) {
    mass += 1.0 / static_cast<double>(r + 1);
    cdf[r] = mass;
  }
  Rng rng(0x21BF);
  u64 cold = 0;
  for (int i = 0; i < 20'000; ++i) {
    Text pattern;
    if (rng.UniformDouble() < 0.5) {
      pattern = pattern_of(cold++, 0xC01D);  // Uniform cold: seen once.
    } else {
      const std::size_t rank = static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), rng.UniformDouble() * mass) -
          cdf.begin());
      pattern = pattern_of(std::min(rank, pool_size - 1), 0x407);
    }
    tier.RecordExact(DegradedTier::KeyFor(pattern),
                     Exact(static_cast<double>(pattern.size()), 1));
  }

  std::size_t cached = 0;
  for (std::size_t rank = 0; rank < hottest; ++rank) {
    QueryResult got;
    if (tier.TryAnswer(DegradedTier::KeyFor(pattern_of(rank, 0x407)), &got) &&
        got.provenance == AnswerProvenance::kCached) {
      ++cached;
    }
  }
  const double share =
      static_cast<double>(cached) / static_cast<double>(hottest);
  // The separate popularity sketch of earlier versions kept 0.91-0.96 of
  // them over seeds 11-15 and 0x21BF; evicting a random way, blind to
  // popularity, keeps under half.
  EXPECT_GE(share, 0.85) << cached << " of the " << hottest << " hottest";
}

TEST(DegradedTier, StatsReportGeometryAndFootprint) {
  DegradedTierOptions options;
  options.cache_capacity = 100;   // Rounds up to 128.
  options.sketch_width = 1000;    // Rounds up to 1024.
  options.sketch_depth = 5;
  DegradedTier tier(options);
  const DegradedTierStats stats = tier.stats();
  EXPECT_EQ(stats.cache_capacity, 128u);
  EXPECT_EQ(stats.sketch_width, 1024u);
  EXPECT_EQ(stats.sketch_depth, 5u);
  EXPECT_DOUBLE_EQ(stats.epsilon, 2.718281828459045 / 1024.0);
  EXPECT_EQ(stats.cache_size, 0u);
  EXPECT_DOUBLE_EQ(stats.CacheHitRate(), 0.0);
  EXPECT_GT(tier.SizeInBytes(),
            1024u * 5u * (sizeof(double) + sizeof(u32)));
}

void ExpectSameStats(const DegradedTierStats& a, const DegradedTierStats& b) {
  EXPECT_EQ(a.cache_capacity, b.cache_capacity);
  EXPECT_EQ(a.cache_size, b.cache_size);
  EXPECT_EQ(a.records, b.records);
  EXPECT_EQ(a.record_drops, b.record_drops);
  EXPECT_EQ(a.stale_drops, b.stale_drops);
  EXPECT_EQ(a.lookups, b.lookups);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.sketch_answers, b.sketch_answers);
  EXPECT_EQ(a.unanswered, b.unanswered);
  EXPECT_EQ(a.sketched_keys, b.sketched_keys);
  EXPECT_EQ(a.sketch_mass, b.sketch_mass);
}

TEST(DegradedTier, BatchRecordMatchesPerAnswerLoop) {
  // A small cache and filter force displacement and admission decisions,
  // so any divergence in record order or content would show in the state.
  DegradedTierOptions small;
  small.cache_capacity = 64;
  small.sketch_width = 64;
  small.max_sketched_keys = 256;
  for (const DegradedTierOptions& options : {DegradedTierOptions{}, small}) {
    for (const std::size_t group : {0u, 1u, 31u, 32u, 33u, 1000u}) {
      SCOPED_TRACE(::testing::Message() << "group " << group << " cache "
                                        << options.cache_capacity);
      Rng rng(0xBA7C + group);
      // Repeats (a pool smaller than the group) and a long-pattern tail,
      // as served traffic has; some negative utilities stay cache-only.
      std::vector<Text> pool;
      for (int i = 0; i < 300; ++i) {
        Text pattern(1 + rng.UniformBelow(i % 50 == 0 ? 400 : 12));
        for (Symbol& c : pattern) c = static_cast<Symbol>(rng.UniformBelow(6));
        pool.push_back(std::move(pattern));
      }
      std::vector<PatternSpan> patterns;
      std::vector<QueryResult> results;
      for (std::size_t i = 0; i < group; ++i) {
        patterns.push_back(pool[rng.UniformBelow(pool.size())]);
        results.push_back(Exact(rng.UniformDouble() * 20.0 - 1.0,
                                static_cast<index_t>(rng.UniformBelow(50))));
      }

      DegradedTier loop(options);
      DegradedTier batch(options);
      for (std::size_t i = 0; i < group; ++i) {
        loop.RecordExact(DegradedTier::KeyFor(patterns[i]), results[i]);
      }
      batch.RecordExactBatch(patterns, results, batch.epoch());
      ExpectSameStats(loop.stats(), batch.stats());
      EXPECT_EQ(batch.stats().records, group);

      // Same lookups in the same order on both (a lookup feeds popularity
      // too, so the two tiers stay in lockstep throughout).
      for (const Text& pattern : pool) {
        const PatternKey key = DegradedTier::KeyFor(pattern);
        QueryResult from_loop, from_batch;
        const bool loop_hit = loop.TryAnswer(key, &from_loop);
        ASSERT_EQ(batch.TryAnswer(key, &from_batch), loop_hit);
        EXPECT_EQ(from_batch.provenance, from_loop.provenance);
        EXPECT_EQ(from_batch.utility, from_loop.utility);
        EXPECT_EQ(from_batch.occurrences, from_loop.occurrences);
        EXPECT_EQ(from_batch.error_bound, from_loop.error_bound);
      }
      ExpectSameStats(loop.stats(), batch.stats());
    }
  }
}

TEST(DegradedTier, StaleEpochBatchIsDropped) {
  DegradedTier tier;
  const Text pattern = T("before");
  const std::vector<PatternSpan> patterns = {pattern};
  const std::vector<QueryResult> results = {Exact(5.0, 2)};
  const u64 epoch = tier.epoch();
  tier.Clear();  // The content the answer came from is gone.
  EXPECT_EQ(tier.epoch(), epoch + 1);
  tier.RecordExactBatch(patterns, results, epoch);
  QueryResult got;
  EXPECT_FALSE(tier.TryAnswer(DegradedTier::KeyFor(pattern), &got));
  DegradedTierStats stats = tier.stats();
  EXPECT_EQ(stats.records, 0u);
  EXPECT_EQ(stats.stale_drops, 1u);

  tier.RecordExactBatch(patterns, results, tier.epoch());
  EXPECT_TRUE(tier.TryAnswer(DegradedTier::KeyFor(pattern), &got));
  EXPECT_EQ(got.utility, 5.0);
  stats = tier.stats();
  EXPECT_EQ(stats.records, 1u);
  EXPECT_EQ(stats.stale_drops, 1u);
}

TEST(DegradedTier, KeyForSeesEveryByteAndIgnoresAlignment) {
  Rng rng(0xF11B);
  // Room for every length at every alignment offset.
  std::vector<Symbol> buffer(80 + 16);
  for (std::size_t len = 0; len <= 80; ++len) {
    Text pattern(len);
    for (Symbol& c : pattern) c = static_cast<Symbol>(rng.UniformBelow(256));
    const PatternKey key = DegradedTier::KeyFor(pattern);
    EXPECT_EQ(key.len, len);
    for (std::size_t offset = 0; offset < 16; ++offset) {
      std::copy(pattern.begin(), pattern.end(), buffer.begin() + offset);
      const PatternKey moved =
          DegradedTier::KeyFor(PatternSpan(buffer.data() + offset, len));
      EXPECT_TRUE(moved == key) << "len " << len << " offset " << offset;
    }
    for (std::size_t pos = 0; pos < len; ++pos) {
      for (const Symbol flip : {Symbol{0x01}, Symbol{0x80}, Symbol{0xFF}}) {
        Text changed = pattern;
        changed[pos] ^= flip;
        EXPECT_NE(DegradedTier::KeyFor(changed).fp, key.fp)
            << "len " << len << " pos " << pos << " flip " << int{flip};
      }
    }
  }
}

TEST(DegradedTier, EpochGateNeverReplaysPreClearAnswersUnderConcurrency) {
  // Every answer a recorder offers carries, as its utility, the epoch it
  // read before "computing" it — a stand-in for the content version the
  // answer describes. A lookup that starts after some Clear() (epoch e1)
  // may only see answers learned at epoch >= e1: anything older is an
  // answer about content that Clear retired.
  DegradedTierOptions options;
  options.cache_capacity = 256;
  options.sketch_width = 256;
  options.max_sketched_keys = 1024;
  DegradedTier tier(options);

  Rng rng(0xC1EA);
  std::vector<Text> pool;
  for (int i = 0; i < 96; ++i) {
    Text pattern(1 + rng.UniformBelow(10));
    for (Symbol& c : pattern) c = static_cast<Symbol>(rng.UniformBelow(4));
    pool.push_back(std::move(pattern));
  }
  const std::vector<PatternSpan> patterns(pool.begin(), pool.end());

  std::atomic<bool> stop{false};
  std::atomic<u64> violations{0}, answered{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      std::vector<QueryResult> results(patterns.size());
      while (!stop.load(std::memory_order_relaxed)) {
        const u64 epoch = tier.epoch();
        for (QueryResult& result : results) {
          result = Exact(static_cast<double>(epoch), 1);
        }
        tier.RecordExactBatch(patterns, results, epoch);
      }
    });
  }
  threads.emplace_back([&] {
    std::size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const u64 before = tier.epoch();
      QueryResult got;
      const bool hit =
          tier.TryAnswer(DegradedTier::KeyFor(pool[i++ % pool.size()]), &got);
      const u64 after = tier.epoch();
      if (!hit) continue;
      answered.fetch_add(1, std::memory_order_relaxed);
      // Cached answers replay one record exactly; sketch answers only ever
      // over-estimate the record they stand for.
      const bool stale = got.utility < static_cast<double>(before);
      const bool future = got.provenance == AnswerProvenance::kCached &&
                          got.utility > static_cast<double>(after);
      if (stale || future) violations.fetch_add(1);
    }
  });
  for (int round = 0; round < 2'000; ++round) {
    tier.Clear();
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(violations.load(), 0u);
  const DegradedTierStats stats = tier.stats();
  EXPECT_EQ(tier.epoch(), 2'000u);
  EXPECT_GT(stats.records, 0u) << "recorders never got through";
  EXPECT_GT(stats.lookups, 0u);
}

}  // namespace
}  // namespace usi
