// The batch-aware query hot path: UsiIndex::QueryBatch (block
// fingerprints, prefetch probing) and QueryAllWindows (rolling-hash sliding
// windows) must answer exactly like per-pattern Query, for both miners,
// with and without scratch reuse; UsiService's QueryBatchInto must agree at
// every thread count. Neither path mutates the index, so concurrent callers
// over a freshly loaded index (whose hasher has grown no powers) must stay
// race-free and exact.

#include <cstdio>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "usi/core/baselines.hpp"
#include "usi/core/usi_index.hpp"
#include "usi/core/usi_service.hpp"
#include "usi/parallel/thread_pool.hpp"
#include "usi/suffix/suffix_array.hpp"

namespace usi {
namespace {

/// Mixed workload: substrings of the text (frequent ones hit H, rare ones
/// fall back to SA + PSW), patterns absent from the text, empty and
/// oversized patterns — every answer path in one batch.
std::vector<Text> MixedPatterns(const WeightedString& ws, u64 seed) {
  Rng rng(seed);
  std::vector<Text> patterns;
  for (int i = 0; i < 300; ++i) {
    const index_t start = static_cast<index_t>(rng.UniformBelow(ws.size()));
    const index_t max_len = std::min<index_t>(12, ws.size() - start);
    const index_t len = static_cast<index_t>(rng.UniformInRange(1, max_len));
    patterns.push_back(ws.Fragment(start, len));
  }
  for (int i = 0; i < 60; ++i) {
    // Symbols beyond the generator's sigma never occur in the text.
    patterns.push_back(Text(static_cast<std::size_t>(rng.UniformInRange(1, 8)),
                            static_cast<Symbol>(200 + i % 50)));
  }
  patterns.push_back(Text{});                      // Empty pattern.
  patterns.push_back(Text(ws.size() + 5, 1));      // Longer than the text.
  return patterns;
}

void ExpectSameResults(const std::vector<QueryResult>& got,
                       const std::vector<QueryResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_DOUBLE_EQ(got[i].utility, want[i].utility) << "pattern " << i;
    EXPECT_EQ(got[i].occurrences, want[i].occurrences) << "pattern " << i;
    EXPECT_EQ(got[i].from_hash_table, want[i].from_hash_table)
        << "pattern " << i;
  }
}

/// Saves \p built and heap-loads it back over \p ws. Loading rebuilds the
/// hasher from its base alone, so its power table holds only {1, base}: the
/// state in which a query path that grew powers would race.
std::unique_ptr<UsiIndex> SaveAndLoad(const UsiIndex& built,
                                      const WeightedString& ws,
                                      const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  if (!built.SaveToFile(path)) return nullptr;
  std::unique_ptr<UsiIndex> loaded = UsiIndex::LoadFromFile(ws, path);
  std::remove(path.c_str());
  return loaded;
}

class QueryBatchMinerTest : public ::testing::TestWithParam<UsiMiner> {};

TEST_P(QueryBatchMinerTest, BatchMatchesPerQueryOnAllAnswerPaths) {
  const WeightedString ws = testing::RandomWeighted(600, 4, 0xAB);
  UsiOptions options;
  options.k = 80;
  const std::unique_ptr<UsiIndex> built =
      testing::BuildWithMiner(ws, options, GetParam());
  ASSERT_NE(built, nullptr);
  UsiIndex& index = *built;
  const std::vector<Text> patterns = MixedPatterns(ws, 0x1234);
  const std::vector<PatternSpan> spans = AsPatternSpans(patterns);

  std::vector<QueryResult> want(patterns.size());
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    want[i] = static_cast<const UsiIndex&>(index).Query(patterns[i]);
  }

  // Null scratch (call-local buffers).
  std::vector<QueryResult> got(patterns.size());
  index.QueryBatch(spans, got, nullptr);
  ExpectSameResults(got, want);

  // Reused scratch across several batches (the steady-state serving shape).
  QueryScratch scratch;
  for (int round = 0; round < 3; ++round) {
    std::fill(got.begin(), got.end(), QueryResult{});
    index.QueryBatch(spans, got, &scratch);
    ExpectSameResults(got, want);
  }
}

INSTANTIATE_TEST_SUITE_P(BothMiners, QueryBatchMinerTest,
                         ::testing::Values(UsiMiner::kExact,
                                           UsiMiner::kApproximate));

TEST(QueryBatch, RepeatHeavyLongPatternBatchMatchesPerQuery) {
  // Long patterns with massive duplication, every length hashed through
  // the 8/4/1 block splits; the batch answers must be indistinguishable
  // from per-pattern Query.
  const WeightedString ws = testing::RandomWeighted(1'000, 4, 0x7A57);
  UsiOptions options;
  options.k = 120;
  UsiIndex index(ws, options);

  Rng rng(0xC1);
  std::vector<Text> distinct;
  for (int i = 0; i < 12; ++i) {
    const index_t start = static_cast<index_t>(rng.UniformBelow(ws.size() - 80));
    distinct.push_back(ws.Fragment(
        start, static_cast<index_t>(rng.UniformInRange(24, 64))));
  }
  std::vector<Text> patterns;
  for (int i = 0; i < 400; ++i) {
    patterns.push_back(distinct[rng.UniformBelow(distinct.size())]);
  }

  std::vector<QueryResult> want(patterns.size());
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    want[i] = static_cast<const UsiIndex&>(index).Query(patterns[i]);
  }
  QueryScratch scratch;
  std::vector<QueryResult> got(patterns.size());
  index.QueryBatch(AsPatternSpans(patterns), got, &scratch);
  ExpectSameResults(got, want);
}

TEST(QueryBatch, HitsComeFromTheHashTable) {
  const WeightedString ws = testing::RandomWeighted(500, 3, 0xCD);
  UsiOptions options;
  options.k = 60;
  UsiIndex index(ws, options);
  // Batch of patterns drawn from the text; at least the most frequent ones
  // must be answered from H, and the batch path must agree with Query on
  // exactly which.
  const std::vector<Text> patterns = MixedPatterns(ws, 0x77);
  std::vector<QueryResult> results(patterns.size());
  index.QueryBatch(AsPatternSpans(patterns), results, nullptr);
  std::size_t hits = 0;
  for (const QueryResult& r : results) hits += r.from_hash_table ? 1 : 0;
  EXPECT_GT(hits, 0u) << "a frequent-substring workload must hit H";
}

TEST(QueryAllWindows, MatchesPerWindowQuery) {
  const WeightedString ws = testing::RandomWeighted(400, 3, 0xEF);
  UsiOptions options;
  options.k = 50;
  UsiIndex index(ws, options);

  // A document that shares structure with the text (its own prefix) plus a
  // tail that does not occur, so windows exercise hits, fallbacks and
  // zero-occurrence answers.
  Text document(ws.text().begin(), ws.text().begin() + 200);
  for (int i = 0; i < 40; ++i) document.push_back(static_cast<Symbol>(220));

  for (const index_t window_len : {1u, 3u, 7u, 16u}) {
    const std::size_t windows = document.size() - window_len + 1;
    std::vector<QueryResult> got(windows);
    index.QueryAllWindows(document, window_len, got);
    for (std::size_t i = 0; i < windows; ++i) {
      const QueryResult want = static_cast<const UsiIndex&>(index).Query(
          std::span<const Symbol>(document.data() + i, window_len));
      ASSERT_DOUBLE_EQ(got[i].utility, want.utility)
          << "len=" << window_len << " window " << i;
      ASSERT_EQ(got[i].occurrences, want.occurrences);
      ASSERT_EQ(got[i].from_hash_table, want.from_hash_table);
    }
  }
}

TEST(QueryAllWindows, DegenerateShapesAreNoOps) {
  const WeightedString ws = testing::RandomWeighted(100, 3, 0x11);
  UsiOptions options;
  options.k = 10;
  UsiIndex index(ws, options);
  const Text document = ws.Fragment(0, 10);
  std::vector<QueryResult> results(1);
  index.QueryAllWindows(document, 0, results);   // Zero-length window.
  index.QueryAllWindows(document, 11, results);  // Window beyond document.
  index.QueryAllWindows(Text{}, 4, results);     // Empty document.
}

TEST(QueryAllWindows, ConcurrentWindowLengthsOnLoadedIndexMatchQuery) {
  const WeightedString ws = testing::RandomWeighted(1'200, 4, 0xA11);
  UsiOptions options;
  options.k = 150;
  const UsiIndex built(ws, options);
  const std::unique_ptr<UsiIndex> index =
      SaveAndLoad(built, ws, "usi_query_batch_windows.bin");
  ASSERT_NE(index, nullptr);
  const UsiIndex& reader = *index;

  // A stretch of the text (hits and fallbacks) plus a tail that never
  // occurs, so long windows also take the zero-occurrence path.
  Text document(ws.text().begin() + 100, ws.text().begin() + 700);
  for (int i = 0; i < 60; ++i) document.push_back(static_cast<Symbol>(230));

  // One window length per thread, all released at once: every thread needs
  // a power of the base the loaded hasher has never computed.
  const std::vector<index_t> lengths = {40, 80, 120, 160};
  std::vector<std::vector<QueryResult>> got(lengths.size());
  std::latch start(static_cast<std::ptrdiff_t>(lengths.size()));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < lengths.size(); ++t) {
    got[t].resize(document.size() - lengths[t] + 1);
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      reader.QueryAllWindows(document, lengths[t], got[t]);
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (std::size_t t = 0; t < lengths.size(); ++t) {
    for (std::size_t i = 0; i < got[t].size(); ++i) {
      const QueryResult want = reader.Query(
          std::span<const Symbol>(document.data() + i, lengths[t]));
      ASSERT_DOUBLE_EQ(got[t][i].utility, want.utility)
          << "len=" << lengths[t] << " window " << i;
      ASSERT_EQ(got[t][i].occurrences, want.occurrences);
      ASSERT_EQ(got[t][i].from_hash_table, want.from_hash_table);
    }
  }
}

TEST(UsiServiceBatch, IntoMatchesReturningFormAtEveryThreadCount) {
  const WeightedString ws = testing::RandomWeighted(800, 4, 0x5E);
  UsiOptions options;
  options.k = 100;
  UsiIndex index(ws, options);
  const std::vector<Text> patterns = MixedPatterns(ws, 0x99);
  const std::vector<PatternSpan> spans = AsPatternSpans(patterns);

  UsiServiceOptions sequential;
  sequential.threads = 1;
  UsiService reference(index, sequential);
  const std::vector<QueryResult> want = reference.QueryBatch(spans);

  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    UsiServiceOptions service_options;
    service_options.threads = threads;
    service_options.min_shard_size = 16;
    UsiService service(index, service_options);
    std::vector<QueryResult> got(patterns.size());
    // Twice: the second run reuses the threads' warmed scratch.
    UsiBatchStats stats;
    EXPECT_EQ(service.QueryBatchInto(spans, got), ServeStatus::kOk);
    EXPECT_EQ(service.QueryBatchInto(spans, got, &stats), ServeStatus::kOk);
    ExpectSameResults(got, want);
    EXPECT_EQ(stats.patterns, patterns.size());
    std::size_t hits = 0;
    for (const QueryResult& r : want) hits += r.from_hash_table ? 1 : 0;
    EXPECT_EQ(stats.hash_hits, hits);
  }
}

TEST(UsiServiceBatch, PerBatchStatsAccumulateAcrossBatches) {
  const WeightedString ws = testing::RandomWeighted(600, 4, 0x77);
  UsiOptions options;
  options.k = 80;
  UsiIndex index(ws, options);
  const std::vector<Text> patterns = MixedPatterns(ws, 0x88);
  const std::vector<PatternSpan> spans = AsPatternSpans(patterns);

  UsiServiceOptions sequential;
  sequential.threads = 1;
  UsiService service(index, sequential);
  std::size_t hits_per_batch = 0;

  // The UsiBatchStats out-parameter is the service's only telemetry
  // channel: each batch reports its own counts, which must match the
  // answers it wrote, and a supervising tier sums them for lifetime totals.
  const int rounds = 4;
  u64 batches = 0;
  u64 queries = 0;
  u64 hash_hits = 0;
  std::vector<QueryResult> got(patterns.size());
  for (int round = 0; round < rounds; ++round) {
    UsiBatchStats batch;
    ASSERT_EQ(service.QueryBatchInto(spans, got, &batch), ServeStatus::kOk);
    EXPECT_EQ(batch.patterns, patterns.size());
    std::size_t hits = 0;
    for (const QueryResult& r : got) hits += r.from_hash_table ? 1 : 0;
    EXPECT_EQ(batch.hash_hits, hits);
    EXPECT_FALSE(batch.deadline_expired);
    hits_per_batch = batch.hash_hits;
    batches += 1;
    queries += batch.answered;
    hash_hits += batch.hash_hits;
  }
  EXPECT_GT(hits_per_batch, 0u);
  EXPECT_EQ(batches, static_cast<u64>(rounds));
  EXPECT_EQ(queries, static_cast<u64>(rounds) * patterns.size());
  EXPECT_EQ(hash_hits, static_cast<u64>(rounds) * hits_per_batch);
}

TEST(UsiServiceBatch, ConcurrentClientsWithGrowingPatternLengthsMatchQuery) {
  // Four clients share two services over two freshly loaded indexes, both
  // on one 4-worker pool, and every round's longest pattern is longer than
  // any served before (8 -> 512 symbols). Each client alternates between
  // the services, so one worker's thread-local scratch serves both engines
  // in turn. No batch may need to prepare shared state first, and none
  // takes a scratch lock: the answers must equal per-pattern Query.
  UsiOptions options;
  options.k = 200;
  const std::vector<WeightedString> texts = {
      testing::RandomWeighted(2'000, 4, 0x5EED),
      testing::RandomWeighted(1'700, 6, 0x5EEE)};
  std::vector<std::unique_ptr<UsiIndex>> indexes;
  for (std::size_t t = 0; t < texts.size(); ++t) {
    const UsiIndex built(texts[t], options);
    indexes.push_back(SaveAndLoad(
        built, texts[t],
        "usi_query_batch_clients_" + std::to_string(t) + ".bin"));
    ASSERT_NE(indexes.back(), nullptr);
  }

  ThreadPool pool(4);
  UsiServiceOptions service_options;
  service_options.min_shard_size = 16;
  UsiService service_a(*indexes[0], &pool, service_options);
  UsiService service_b(*indexes[1], &pool, service_options);
  UsiService* const services[] = {&service_a, &service_b};

  constexpr std::size_t kClients = 4;
  constexpr std::size_t kBatch = 96;
  struct Round {
    std::size_t text = 0;
    std::vector<Text> patterns;
    std::vector<QueryResult> results;
    ServeStatus status = ServeStatus::kInvalidArgument;
    UsiBatchStats stats;
  };
  std::vector<std::vector<Round>> rounds(kClients);
  std::latch start(static_cast<std::ptrdiff_t>(kClients));
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(0xC11E47 + c);
      start.arrive_and_wait();
      for (index_t max_len = 8; max_len <= 512; max_len *= 2) {
        Round& round = rounds[c].emplace_back();
        round.text = (c + rounds[c].size()) % texts.size();
        const WeightedString& ws = texts[round.text];
        for (std::size_t i = 0; i < kBatch; ++i) {
          const index_t len =
              i == 0 ? max_len
                     : static_cast<index_t>(rng.UniformInRange(1, max_len));
          const index_t begin =
              static_cast<index_t>(rng.UniformBelow(ws.size() - len + 1));
          round.patterns.push_back(ws.Fragment(begin, len));
        }
        // One pattern that never occurs, at the round's longest length.
        round.patterns.push_back(Text(max_len, static_cast<Symbol>(240)));
        round.results.resize(round.patterns.size());
        round.status = services[round.text]->QueryBatchInto(
            AsPatternSpans(round.patterns), round.results, &round.stats);
      }
    });
  }
  for (std::thread& client : clients) client.join();

  for (std::size_t c = 0; c < kClients; ++c) {
    ASSERT_EQ(rounds[c].size(), 7u);
    for (const Round& round : rounds[c]) {
      EXPECT_EQ(round.status, ServeStatus::kOk);
      EXPECT_EQ(round.stats.answered, round.patterns.size());
      EXPECT_GT(round.stats.shards, 1u) << "the batch must fan out";
      const UsiIndex& reader = *indexes[round.text];
      std::vector<QueryResult> want(round.patterns.size());
      for (std::size_t i = 0; i < round.patterns.size(); ++i) {
        want[i] = reader.Query(round.patterns[i]);
      }
      ExpectSameResults(round.results, want);
    }
  }
}

TEST(UsiServiceBatch, CachingBaselineStillServedInOrder) {
  const WeightedString ws = testing::RandomWeighted(400, 3, 0x21);
  const std::vector<index_t> sa = BuildSuffixArray(ws.text());
  const PrefixSumWeights psw(ws);
  BaselineContext context;
  context.ws = &ws;
  context.sa = &sa;
  context.psw = &psw;
  context.cache_capacity = 8;

  const std::vector<Text> patterns = MixedPatterns(ws, 0x42);
  // Two BSL2 instances: one queried directly in order, one through the
  // batch path. LRU answers depend on order, so equality proves the
  // service kept sequential in-order serving for caching engines.
  auto direct = MakeBaseline(BaselineKind::kBsl2, context);
  std::vector<QueryResult> want(patterns.size());
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    want[i] = direct->Query(patterns[i]);
  }

  auto served = MakeBaseline(BaselineKind::kBsl2, context);
  UsiServiceOptions service_options;
  service_options.threads = 4;  // Must be ignored: engine is not concurrent.
  UsiService service(*served, service_options);
  std::vector<QueryResult> got(patterns.size());
  UsiBatchStats stats;
  EXPECT_EQ(service.QueryBatchInto(AsPatternSpans(patterns), got, &stats),
            ServeStatus::kOk);
  ExpectSameResults(got, want);
  EXPECT_EQ(stats.threads_used, 1u);
}

}  // namespace
}  // namespace usi
