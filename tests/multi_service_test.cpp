// Multi-text serving tier: UsiMultiService must route mixed-text batches to
// the right index with answers identical to querying each text's UsiIndex
// directly, publish asynchronous generational rebuilds without ever showing
// a batch a half-applied swap, shed load over the in-flight cap with kBusy,
// and aggregate per-text lifetime telemetry. The generation-swap test
// hammers QueryBatch from several threads while rebuilds cycle; it runs
// under ThreadSanitizer in CI via the "concurrency" label.

#include <algorithm>
#include <atomic>
#include <latch>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "usi/core/multi_service.hpp"
#include "usi/core/usi_index.hpp"
#include "usi/parallel/thread_pool.hpp"

namespace usi {
namespace {

/// Substrings of \p ws (frequent and rare) plus patterns absent from it.
std::vector<Text> PatternsFor(const WeightedString& ws, u64 seed) {
  Rng rng(seed);
  std::vector<Text> patterns;
  for (int i = 0; i < 60; ++i) {
    const index_t start = static_cast<index_t>(rng.UniformBelow(ws.size()));
    const index_t max_len = std::min<index_t>(10, ws.size() - start);
    patterns.push_back(ws.Fragment(
        start, static_cast<index_t>(rng.UniformInRange(1, max_len))));
  }
  for (int i = 0; i < 12; ++i) {
    patterns.push_back(Text(static_cast<std::size_t>(rng.UniformInRange(1, 6)),
                            static_cast<Symbol>(210 + i)));
  }
  return patterns;
}

/// Per-pattern answers from a directly-constructed UsiIndex (the oracle the
/// routed service must match exactly).
std::vector<QueryResult> DirectAnswers(const WeightedString& ws,
                                       const UsiOptions& options,
                                       const std::vector<Text>& patterns) {
  UsiIndex index(ws, options);
  std::vector<QueryResult> want(patterns.size());
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    want[i] = static_cast<const UsiIndex&>(index).Query(patterns[i]);
  }
  return want;
}

bool SameResult(const QueryResult& a, const QueryResult& b) {
  return a.utility == b.utility && a.occurrences == b.occurrences &&
         a.from_hash_table == b.from_hash_table;
}

void ExpectSameResults(const std::vector<QueryResult>& got,
                       const std::vector<QueryResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_DOUBLE_EQ(got[i].utility, want[i].utility) << "query " << i;
    EXPECT_EQ(got[i].occurrences, want[i].occurrences) << "query " << i;
    EXPECT_EQ(got[i].from_hash_table, want[i].from_hash_table) << "query " << i;
  }
}

TEST(MultiService, MixedBatchMatchesDirectIndexes) {
  const WeightedString ws_a = testing::RandomWeighted(700, 4, 0xA);
  const WeightedString ws_b = testing::RandomWeighted(500, 3, 0xB);
  const WeightedString ws_c = testing::RandomWeighted(300, 5, 0xC);
  UsiOptions options;
  options.k = 64;

  UsiMultiServiceOptions service_options;
  service_options.threads = 2;
  UsiMultiService service(service_options);
  EXPECT_EQ(service.SubmitText("alpha", ws_a, options), 1u);
  EXPECT_EQ(service.SubmitText("beta", ws_b, options), 1u);
  EXPECT_EQ(service.SubmitText("gamma", ws_c, options), 1u);
  service.WaitForBuilds();
  EXPECT_EQ(service.TextIds(),
            (std::vector<std::string>{"alpha", "beta", "gamma"}));

  const std::vector<Text> pat_a = PatternsFor(ws_a, 0x1A);
  const std::vector<Text> pat_b = PatternsFor(ws_b, 0x1B);
  const std::vector<Text> pat_c = PatternsFor(ws_c, 0x1C);
  const std::vector<QueryResult> want_a = DirectAnswers(ws_a, options, pat_a);
  const std::vector<QueryResult> want_b = DirectAnswers(ws_b, options, pat_b);
  const std::vector<QueryResult> want_c = DirectAnswers(ws_c, options, pat_c);

  // Interleave the three texts' queries so routing, grouping and the
  // scatter back to original slots are all exercised.
  std::vector<MultiQuery> queries;
  std::vector<const QueryResult*> want;
  const std::size_t max_n =
      std::max({pat_a.size(), pat_b.size(), pat_c.size()});
  for (std::size_t i = 0; i < max_n; ++i) {
    if (i < pat_a.size()) {
      queries.push_back({"alpha", pat_a[i]});
      want.push_back(&want_a[i]);
    }
    if (i < pat_b.size()) {
      queries.push_back({"beta", pat_b[i]});
      want.push_back(&want_b[i]);
    }
    if (i < pat_c.size()) {
      queries.push_back({"gamma", pat_c[i]});
      want.push_back(&want_c[i]);
    }
  }

  MultiBatchResult got = service.QueryBatch(queries);
  ASSERT_EQ(got.status, ServeStatus::kOk);
  ASSERT_EQ(got.results.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(SameResult(got.results[i], *want[i]))
        << "query " << i << " for " << queries[i].text_id;
  }

  // Single-query convenience agrees too.
  QueryResult single;
  ASSERT_EQ(service.Query("beta", pat_b[0], single), ServeStatus::kOk);
  EXPECT_TRUE(SameResult(single, want_b[0]));
}

TEST(MultiService, UnknownTextRejectsTheWholeBatch) {
  const WeightedString ws = testing::RandomWeighted(300, 4, 0xD);
  UsiMultiService service;
  service.SubmitText("known", ws);
  service.WaitForBuilds();

  const Text pattern = ws.Fragment(0, 3);
  std::vector<MultiQuery> queries = {{"known", pattern}, {"nope", pattern}};
  std::vector<QueryResult> results(queries.size());
  results[0].utility = -1;  // Sentinels: a rejected batch must not write.
  results[1].utility = -1;
  EXPECT_EQ(service.QueryBatchInto(queries, results),
            ServeStatus::kUnknownText);
  EXPECT_EQ(results[0].utility, -1.0);
  EXPECT_EQ(results[1].utility, -1.0);

  EXPECT_FALSE(service.HasText("nope"));
  EXPECT_EQ(service.WaitForText("nope"), BuildState::kUnknown);
  EXPECT_FALSE(service.UnregisterText("nope"));
  QueryResult single;
  EXPECT_EQ(service.Query("nope", pattern, single), ServeStatus::kUnknownText);
}

TEST(MultiService, AsyncBuildServesNotReadyUntilFirstGenerationLands) {
  // Deterministic async ordering: a 1-wide injected pool whose only worker
  // is parked on a latch. The scheduled build cannot start, so the text
  // must serve kNotReady; releasing the latch lets the build lane run and
  // the text becomes servable. Queries never touch the pool at width 1
  // (inline serving), so they drain while the worker is busy — the
  // "queries drain during rebuild" contract in miniature.
  ThreadPool pool(1);
  std::latch started(1);
  std::latch release(1);
  pool.Run([&] {
    started.count_down();
    release.wait();
  });
  started.wait();

  const WeightedString ws = testing::RandomWeighted(400, 4, 0xE);
  UsiOptions options;
  options.k = 32;
  UsiMultiService service(&pool);
  EXPECT_EQ(service.SubmitText("t", ws, options), 1u);

  const Text pattern = ws.Fragment(5, 4);
  QueryResult result;
  EXPECT_EQ(service.Query("t", pattern, result), ServeStatus::kNotReady);
  EXPECT_TRUE(service.HasText("t"));
  auto stats = service.StatsFor("t");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->generation, 0u);
  EXPECT_EQ(stats->builds_scheduled, 1u);
  EXPECT_EQ(stats->builds_completed, 0u);

  release.count_down();
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);
  ASSERT_EQ(service.Query("t", pattern, result), ServeStatus::kOk);
  const std::vector<QueryResult> want =
      DirectAnswers(ws, options, {pattern});
  EXPECT_TRUE(SameResult(result, want[0]));
  stats = service.StatsFor("t");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->generation, 1u);
  EXPECT_EQ(stats->builds_completed, 1u);
}

TEST(MultiService, UpdateTextPublishesNewGenerationsMonotonically) {
  Text text = testing::RandomText(600, 4, 0xF00);
  const WeightedString ws_v1 = WeightedString::WithUniformWeights(text, 1.0);
  const WeightedString ws_v2 = WeightedString::WithUniformWeights(text, 3.0);
  UsiOptions options;
  options.k = 48;
  UsiMultiServiceOptions service_options;
  service_options.default_build = options;
  UsiMultiService service(service_options);

  EXPECT_EQ(service.UpdateText("t", ws_v1), 0u)  // Not registered yet.
      << "UpdateText must not create texts";
  EXPECT_EQ(service.SubmitText("t", ws_v1), 1u);
  EXPECT_EQ(service.UpdateText("t", ws_v2), 2u);
  service.WaitForBuilds();

  const std::vector<Text> patterns = PatternsFor(ws_v2, 0x2F);
  const std::vector<QueryResult> want = DirectAnswers(ws_v2, options, patterns);
  std::vector<MultiQuery> queries;
  for (const Text& p : patterns) queries.push_back({"t", p});
  MultiBatchResult got = service.QueryBatch(queries);
  ASSERT_EQ(got.status, ServeStatus::kOk);
  ExpectSameResults(got.results, want);

  auto stats = service.StatsFor("t");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->generation, 2u);
  EXPECT_EQ(stats->builds_scheduled, 2u);
  EXPECT_EQ(stats->builds_completed, 2u);

  EXPECT_TRUE(service.UnregisterText("t"));
  QueryResult single;
  EXPECT_EQ(service.Query("t", patterns[0], single),
            ServeStatus::kUnknownText);
}

TEST(MultiService, PerTextTotalsAccumulateAcrossBatches) {
  const WeightedString ws_a = testing::RandomWeighted(400, 4, 0x21);
  const WeightedString ws_b = testing::RandomWeighted(350, 3, 0x22);
  UsiMultiService service;
  service.SubmitText("a", ws_a);
  service.SubmitText("b", ws_b);
  service.WaitForBuilds();

  const std::vector<Text> pat_a = PatternsFor(ws_a, 0x31);
  const std::vector<Text> pat_b = PatternsFor(ws_b, 0x32);
  std::vector<MultiQuery> queries;
  for (const Text& p : pat_a) queries.push_back({"a", p});
  for (const Text& p : pat_b) queries.push_back({"b", p});

  u64 hits_a = 0;
  u64 hits_b = 0;
  const int rounds = 3;
  for (int round = 0; round < rounds; ++round) {
    MultiBatchResult got = service.QueryBatch(queries);
    ASSERT_EQ(got.status, ServeStatus::kOk);
    for (std::size_t i = 0; i < got.results.size(); ++i) {
      if (!got.results[i].from_hash_table) continue;
      (i < pat_a.size() ? hits_a : hits_b) += 1;
    }
  }

  auto stats_a = service.StatsFor("a");
  auto stats_b = service.StatsFor("b");
  ASSERT_TRUE(stats_a.has_value());
  ASSERT_TRUE(stats_b.has_value());
  EXPECT_EQ(stats_a->batches, static_cast<u64>(rounds));
  EXPECT_EQ(stats_b->batches, static_cast<u64>(rounds));
  EXPECT_EQ(stats_a->queries, static_cast<u64>(rounds) * pat_a.size());
  EXPECT_EQ(stats_b->queries, static_cast<u64>(rounds) * pat_b.size());
  EXPECT_EQ(stats_a->hash_hits, hits_a);
  EXPECT_EQ(stats_b->hash_hits, hits_b);
  EXPECT_GT(hits_a, 0u) << "workload must exercise the hash-hit path";

  const UsiMultiStats totals = service.stats();
  EXPECT_EQ(totals.batches, static_cast<u64>(rounds));
  EXPECT_EQ(totals.queries,
            static_cast<u64>(rounds) * (pat_a.size() + pat_b.size()));
  EXPECT_EQ(totals.texts, 2u);
  EXPECT_EQ(totals.builds_scheduled, 2u);
  EXPECT_EQ(totals.builds_completed, 2u);
  EXPECT_EQ(totals.busy_rejected, 0u);
}

TEST(MultiService, AdmissionControlShedsOverCapBatches) {
  const WeightedString ws = testing::RandomWeighted(500, 4, 0x41);
  UsiOptions options;
  options.k = 48;
  UsiMultiServiceOptions service_options;
  service_options.max_inflight_batches = 1;
  service_options.default_build = options;
  UsiMultiService service(service_options);
  service.SubmitText("t", ws);
  service.WaitForBuilds();

  const std::vector<Text> patterns = PatternsFor(ws, 0x42);
  const std::vector<QueryResult> want = DirectAnswers(ws, options, patterns);
  std::vector<MultiQuery> queries;
  for (const Text& p : patterns) queries.push_back({"t", p});

  // A single caller can never trip a cap of 1.
  for (int round = 0; round < 5; ++round) {
    EXPECT_EQ(service.QueryBatch(queries).status, ServeStatus::kOk);
  }
  EXPECT_EQ(service.stats().busy_rejected, 0u);

  // Concurrent callers: every batch either serves completely and correctly
  // or is shed with kBusy — nothing queues, nothing half-executes.
  constexpr int kThreads = 4;
  constexpr int kBatchesPerThread = 25;
  std::atomic<u64> ok{0};
  std::atomic<u64> busy{0};
  std::atomic<u64> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      std::vector<QueryResult> results(queries.size());
      for (int round = 0; round < kBatchesPerThread; ++round) {
        const ServeStatus status = service.QueryBatchInto(queries, results);
        if (status == ServeStatus::kBusy) {
          busy.fetch_add(1);
          continue;
        }
        if (status != ServeStatus::kOk) {
          wrong.fetch_add(1);
          continue;
        }
        ok.fetch_add(1);
        for (std::size_t i = 0; i < results.size(); ++i) {
          if (!SameResult(results[i], want[i])) wrong.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(ok.load() + busy.load(),
            static_cast<u64>(kThreads) * kBatchesPerThread);
  EXPECT_GE(ok.load(), 1u);
  EXPECT_EQ(service.stats().busy_rejected, busy.load());

  // Routing precedes admission: while another batch holds the only slot, a
  // batch naming an unknown id is kUnknownText (not kBusy), results
  // untouched. A second thread keeps long batches in flight. A kBusy probe
  // shows one of them holds the slot; if the holder's batch count has not
  // moved by the end of the unknown-id batch, that same batch held the
  // slot throughout.
  std::vector<MultiQuery> long_queries;
  for (int rep = 0; rep < 200; ++rep) {
    for (const Text& p : patterns) long_queries.push_back({"t", p});
  }
  std::vector<MultiQuery> unknown = queries;
  unknown.back().text_id = "nope";
  const u64 busy_before = service.stats().busy_rejected;
  std::atomic<bool> stop{false};
  std::atomic<u64> holder_batches{0};
  std::thread holder([&] {
    std::vector<QueryResult> results(long_queries.size());
    while (!stop.load()) {
      service.QueryBatchInto(long_queries, results);
      holder_batches.fetch_add(1);
    }
  });
  bool probed_over_cap = false;
  std::vector<QueryResult> probe(queries.size());
  std::vector<QueryResult> results(unknown.size());
  for (int attempt = 0; attempt < 100000 && !probed_over_cap; ++attempt) {
    const u64 before = holder_batches.load();
    if (service.QueryBatchInto(queries, probe) != ServeStatus::kBusy) {
      continue;
    }
    std::fill(results.begin(), results.end(), QueryResult{-1, 777});
    const ServeStatus status = service.QueryBatchInto(unknown, results);
    if (holder_batches.load() != before) continue;
    EXPECT_EQ(status, ServeStatus::kUnknownText);
    for (const QueryResult& r : results) {
      EXPECT_EQ(r.utility, -1);
      EXPECT_EQ(r.occurrences, 777u);
    }
    probed_over_cap = true;
  }
  stop.store(true);
  holder.join();
  EXPECT_TRUE(probed_over_cap) << "never observed the cap held";
  EXPECT_GT(service.stats().busy_rejected, busy_before);
}

TEST(MultiService, GenerationSwapUnderLoadNeverMixesGenerations) {
  // The acceptance scenario: reader threads hammer QueryBatch while a
  // writer cycles rebuilds between two versions of the text (same symbols,
  // different utilities). Every admitted batch must be answered entirely
  // from one pinned generation — its result vector equals the v1 oracle or
  // the v2 oracle, never a mix — and readers never block on the rebuilds.
  Text text = testing::RandomText(500, 4, 0x51);
  const WeightedString ws_v1 = WeightedString::WithUniformWeights(text, 1.0);
  const WeightedString ws_v2 = WeightedString::WithUniformWeights(text, 3.0);
  UsiOptions options;
  options.k = 32;

  std::vector<Text> patterns = PatternsFor(ws_v1, 0x52);
  const std::vector<QueryResult> want_v1 =
      DirectAnswers(ws_v1, options, patterns);
  const std::vector<QueryResult> want_v2 =
      DirectAnswers(ws_v2, options, patterns);
  // The two generations must be distinguishable, or the assertion is
  // vacuous.
  bool differs = false;
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    if (!SameResult(want_v1[i], want_v2[i])) differs = true;
  }
  ASSERT_TRUE(differs);

  UsiMultiServiceOptions service_options;
  service_options.threads = 2;
  service_options.default_build = options;
  UsiMultiService service(service_options);
  service.SubmitText("t", ws_v1);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);

  std::vector<MultiQuery> queries;
  for (const Text& p : patterns) queries.push_back({"t", p});

  constexpr int kReaders = 4;
  constexpr int kBatchesPerReader = 40;
  constexpr int kRebuilds = 6;
  std::atomic<u64> mixed_batches{0};
  std::atomic<u64> failed_batches{0};
  std::atomic<bool> stop_writer{false};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      std::vector<QueryResult> results(queries.size());
      for (int round = 0; round < kBatchesPerReader; ++round) {
        if (service.QueryBatchInto(queries, results) != ServeStatus::kOk) {
          failed_batches.fetch_add(1);
          continue;
        }
        bool all_v1 = true;
        bool all_v2 = true;
        for (std::size_t i = 0; i < results.size(); ++i) {
          if (!SameResult(results[i], want_v1[i])) all_v1 = false;
          if (!SameResult(results[i], want_v2[i])) all_v2 = false;
        }
        if (!all_v1 && !all_v2) mixed_batches.fetch_add(1);
      }
    });
  }

  std::thread writer([&] {
    for (int cycle = 0; cycle < kRebuilds && !stop_writer.load(); ++cycle) {
      service.UpdateText("t", cycle % 2 == 0 ? ws_v2 : ws_v1);
      service.WaitForText("t");  // Pace rebuilds to publish, not just queue.
    }
  });

  for (std::thread& reader : readers) reader.join();
  stop_writer.store(true);
  writer.join();
  service.WaitForBuilds();

  EXPECT_EQ(mixed_batches.load(), 0u)
      << "a batch observed two generations at once";
  EXPECT_EQ(failed_batches.load(), 0u)
      << "readers must never be rejected or blocked by rebuilds";

  auto stats = service.StatsFor("t");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->builds_completed, stats->builds_scheduled);
  EXPECT_EQ(stats->batches,
            static_cast<u64>(kReaders) * kBatchesPerReader);
  const UsiMultiStats totals = service.stats();
  EXPECT_EQ(totals.builds_completed, totals.builds_scheduled);
}

}  // namespace
}  // namespace usi
