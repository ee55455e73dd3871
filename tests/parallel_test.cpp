// Concurrency suite: the thread pool substrate, the parallel build
// pipeline's determinism contract (a parallel build serializes
// byte-identical to a sequential one), and UsiService's batched serving.
// Registered with the "concurrency" CTest label so the TSan CI job can run
// exactly these under ThreadSanitizer.

#include <atomic>
#include <cstdio>
#include <fstream>
#include <latch>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "usi/core/baselines.hpp"
#include "usi/core/usi_builder.hpp"
#include "usi/core/usi_index.hpp"
#include "usi/core/usi_service.hpp"
#include "usi/core/utility.hpp"
#include "usi/parallel/thread_pool.hpp"
#include "usi/suffix/lcp_array.hpp"
#include "usi/suffix/suffix_array.hpp"
#include "usi/topk/approximate_topk.hpp"

namespace usi {
namespace {

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

TEST(ThreadPool, RunsEveryTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> counter{0};
  std::latch done(64);
  for (int i = 0; i < 64; ++i) {
    pool.Run([&] {
      counter.fetch_add(1);
      done.count_down();
    });
  }
  done.wait();
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPool, HardwareConcurrencyIsPositive) {
  EXPECT_GE(ThreadPool::HardwareConcurrency(), 1u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (unsigned threads : {1u, 2u, 3u, 8u}) {
    ThreadPool pool(threads);
    constexpr std::size_t kCount = 1000;
    std::vector<std::atomic<int>> hits(kCount);
    ParallelFor(&pool, kCount, [&](std::size_t i, unsigned worker) {
      EXPECT_LT(worker, threads);
      hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(ParallelFor, NullPoolRunsInline) {
  std::vector<int> order;
  ParallelFor(nullptr, 5, [&](std::size_t i, unsigned worker) {
    EXPECT_EQ(worker, 0u);
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, WorkerIdsAreDenseAndConfined) {
  ThreadPool pool(4);
  // One slot per worker id; concurrent bodies must never share an id.
  std::vector<std::atomic<int>> in_use(4);
  std::atomic<bool> collision{false};
  ParallelFor(&pool, 256, [&](std::size_t, unsigned worker) {
    if (in_use[worker].fetch_add(1) != 0) collision = true;
    in_use[worker].fetch_sub(1);
  });
  EXPECT_FALSE(collision.load());
}

TEST(ParallelLcp, MatchesSequentialScan) {
  ThreadPool pool(3);
  for (u64 seed : {1ull, 17ull, 99ull}) {
    // > 4096 positions so the chunked path actually engages.
    const Text text = testing::RandomText(6000, 4, seed);
    const std::vector<index_t> sa = BuildSuffixArray(text);
    const std::vector<index_t> sequential = BuildLcpArray(text, sa);
    const std::vector<index_t> parallel = BuildLcpArray(text, sa, &pool);
    EXPECT_EQ(sequential, parallel) << "seed " << seed;
  }
}

// The tentpole contract: the same weighted string built sequentially and at
// 2/4/8 threads serializes to byte-identical index files, for both miners
// (UAT: one ApproximateTopK list, built at every width).
TEST(ParallelBuild, SerializesByteIdenticalAcrossThreadCounts) {
  const WeightedString ws = testing::RandomWeighted(4000, 4, 0xC0FFEE);
  const TopKList approx = ApproximateTopK(ws.text(), 150);
  for (const UsiMiner miner : {UsiMiner::kExact, UsiMiner::kApproximate}) {
    const auto build = [&](unsigned threads) {
      UsiOptions options;
      options.k = 150;
      options.threads = threads;
      UsiBuilder builder(ws, options);
      return miner == UsiMiner::kExact ? builder.Build()
                                       : builder.Build(approx);
    };
    const std::unique_ptr<UsiIndex> sequential = build(1);
    ASSERT_NE(sequential, nullptr);
    const std::string seq_path = TempPath("usi_parallel_seq.bin");
    ASSERT_TRUE(sequential->SaveToFile(seq_path));
    const std::string seq_bytes = ReadFileBytes(seq_path);
    ASSERT_FALSE(seq_bytes.empty());

    for (const unsigned threads : {2u, 4u, 8u}) {
      const std::unique_ptr<UsiIndex> parallel = build(threads);
      ASSERT_NE(parallel, nullptr);
      EXPECT_EQ(parallel->build_info().threads_used, threads);
      EXPECT_EQ(parallel->HashTableEntries(), sequential->HashTableEntries());
      const std::string par_path = TempPath("usi_parallel_par.bin");
      ASSERT_TRUE(parallel->SaveToFile(par_path));
      EXPECT_EQ(seq_bytes, ReadFileBytes(par_path))
          << "miner=" << static_cast<int>(miner) << " threads=" << threads;
    }
  }
}

// Differential check: sequential and parallel builds answer every probe the
// same way (hash-table hits included), across utility kinds.
TEST(ParallelBuild, QueriesAgreeWithSequentialBuild) {
  const WeightedString ws = testing::RandomWeighted(3000, 3, 0xBEEF);
  for (const GlobalUtilityKind kind :
       {GlobalUtilityKind::kSum, GlobalUtilityKind::kAvg,
        GlobalUtilityKind::kMax}) {
    UsiOptions options;
    options.k = 100;
    options.utility = kind;
    options.threads = 1;
    const UsiIndex sequential(ws, options);
    UsiOptions parallel_options = options;
    parallel_options.threads = 4;
    const UsiIndex parallel(ws, parallel_options);

    Rng rng(0x1234);
    for (int probe = 0; probe < 300; ++probe) {
      const index_t len =
          1 + static_cast<index_t>(rng.UniformBelow(12));
      const index_t start =
          static_cast<index_t>(rng.UniformBelow(ws.size() - len));
      const Text pattern = ws.Fragment(start, len);
      const QueryResult expected = sequential.Query(pattern);
      const QueryResult actual = parallel.Query(pattern);
      EXPECT_DOUBLE_EQ(expected.utility, actual.utility);
      EXPECT_EQ(expected.occurrences, actual.occurrences);
      EXPECT_EQ(expected.from_hash_table, actual.from_hash_table);
    }
  }
}

TEST(ParallelBuild, BuilderReportsStages) {
  const WeightedString ws = testing::RandomWeighted(1500, 3, 0x51);
  UsiOptions options;
  options.k = 64;
  options.threads = 2;
  UsiBuilder builder(ws, options);
  const std::unique_ptr<UsiIndex> index = builder.Build();
  ASSERT_NE(index, nullptr);
  ASSERT_EQ(builder.stages().size(), 5u);
  EXPECT_STREQ(builder.stages()[0].name, "sa");
  EXPECT_STREQ(builder.stages()[1].name, "mine");
  EXPECT_STREQ(builder.stages()[2].name, "table");
  EXPECT_STREQ(builder.stages()[3].name, "learn");
  EXPECT_STREQ(builder.stages()[4].name, "finalize");
  EXPECT_EQ(index->build_info().threads_used, 2u);
  EXPECT_GT(index->build_info().total_seconds, 0.0);
  EXPECT_GT(index->HashTableEntries(), 0u);
}

TEST(UsiService, BatchMatchesPerQueryAnswers) {
  const WeightedString ws = testing::RandomWeighted(2500, 3, 0xAB);
  UsiOptions options;
  options.k = 80;
  UsiIndex index(ws, options);

  Rng rng(0x99);
  std::vector<Text> patterns;
  for (int i = 0; i < 500; ++i) {
    const index_t len = 1 + static_cast<index_t>(rng.UniformBelow(10));
    const index_t start =
        static_cast<index_t>(rng.UniformBelow(ws.size() - len));
    patterns.push_back(ws.Fragment(start, len));
  }

  UsiServiceOptions service_options;
  service_options.threads = 4;
  UsiService service(index, service_options);
  EXPECT_EQ(service.threads(), 4u);
  const std::vector<PatternSpan> spans = AsPatternSpans(patterns);
  const std::vector<QueryResult> batch = service.QueryBatch(spans);
  ASSERT_EQ(batch.size(), patterns.size());
  std::vector<QueryResult> into(patterns.size());
  UsiBatchStats stats;
  ASSERT_EQ(service.QueryBatchInto(spans, into, &stats), ServeStatus::kOk);
  EXPECT_EQ(stats.patterns, patterns.size());
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    const QueryResult expected = index.Query(patterns[i]);
    EXPECT_DOUBLE_EQ(batch[i].utility, expected.utility);
    EXPECT_EQ(batch[i].occurrences, expected.occurrences);
    EXPECT_EQ(batch[i].from_hash_table, expected.from_hash_table);
    EXPECT_DOUBLE_EQ(into[i].utility, expected.utility);
  }
}

TEST(UsiService, CachingEnginesServeSequentiallyInOrder) {
  const WeightedString ws = testing::RandomWeighted(2000, 3, 0xCD);
  const std::vector<index_t> sa = BuildSuffixArray(ws.text());
  const PrefixSumWeights psw(ws);
  BaselineContext context;
  context.ws = &ws;
  context.sa = &sa;
  context.psw = &psw;
  context.cache_capacity = 32;

  Rng rng(0x77);
  std::vector<Text> patterns;
  for (int i = 0; i < 200; ++i) {
    const index_t len = 1 + static_cast<index_t>(rng.UniformBelow(6));
    const index_t start =
        static_cast<index_t>(rng.UniformBelow(ws.size() - len));
    patterns.push_back(ws.Fragment(start, len));
  }

  for (const BaselineKind kind :
       {BaselineKind::kBsl2, BaselineKind::kBsl3, BaselineKind::kBsl4}) {
    // Reference: a fresh engine queried one-by-one in order.
    const auto reference_engine = MakeBaseline(kind, context);
    std::vector<QueryResult> reference;
    for (const Text& p : patterns) reference.push_back(reference_engine->Query(p));

    // Service over another fresh engine must fall back to sequential
    // serving (SupportsConcurrentQuery() is false) and match exactly.
    const auto served_engine = MakeBaseline(kind, context);
    EXPECT_FALSE(served_engine->SupportsConcurrentQuery());
    UsiServiceOptions service_options;
    service_options.threads = 8;
    UsiService service(*served_engine, service_options);
    EXPECT_EQ(service.threads(), 1u);
    const std::vector<QueryResult> batch =
        service.QueryBatch(AsPatternSpans(patterns));
    ASSERT_EQ(batch.size(), reference.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_DOUBLE_EQ(batch[i].utility, reference[i].utility);
      EXPECT_EQ(batch[i].from_hash_table, reference[i].from_hash_table);
    }
  }
}

TEST(UsiService, EmptyBatchIsEmpty) {
  const WeightedString ws = testing::RandomWeighted(500, 3, 0x11);
  UsiIndex index(ws, {});
  UsiService service(index);
  EXPECT_TRUE(service.QueryBatch({}).empty());
}

TEST(UsiService, SharesAnInjectedPool) {
  const WeightedString ws = testing::RandomWeighted(1200, 3, 0x42);
  UsiOptions options;
  options.k = 50;
  ThreadPool pool(3);
  const UsiIndex built_on_pool(ws, options, &pool);
  EXPECT_EQ(built_on_pool.build_info().threads_used, 3u);

  UsiIndex index(ws, options);
  UsiService service(index, &pool);
  EXPECT_EQ(service.threads(), 3u);
  std::vector<Text> patterns;
  for (index_t i = 0; i + 5 <= ws.size(); i += 7) {
    patterns.push_back(ws.Fragment(i, 5));
  }
  const std::vector<QueryResult> batch =
      service.QueryBatch(AsPatternSpans(patterns));
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    EXPECT_DOUBLE_EQ(batch[i].utility, index.Query(patterns[i]).utility);
  }
}

TEST(QueryEngineInterface, EnginesReportNamesAndConcurrency) {
  const WeightedString ws = testing::RandomWeighted(800, 3, 0x21);
  UsiOptions options;
  options.k = 32;
  UsiIndex uet(ws, options);
  EXPECT_STREQ(uet.Name(), "UET");
  EXPECT_TRUE(uet.SupportsConcurrentQuery());

  const std::unique_ptr<UsiIndex> uat =
      UsiBuilder(ws, options).Build(ApproximateTopK(ws.text(), options.k));
  ASSERT_NE(uat, nullptr);
  EXPECT_STREQ(uat->Name(), "UAT");

  // The miner survives a save/load round trip (serialized since format v2),
  // so a restored UAT index does not misreport itself as UET.
  const std::string path = TempPath("usi_uat_roundtrip.bin");
  ASSERT_TRUE(uat->SaveToFile(path));
  const std::unique_ptr<UsiIndex> restored = UsiIndex::LoadFromFile(ws, path);
  ASSERT_NE(restored, nullptr);
  EXPECT_STREQ(restored->Name(), "UAT");

  const std::vector<index_t> sa = BuildSuffixArray(ws.text());
  const PrefixSumWeights psw(ws);
  ExhaustiveQueryEngine exhaustive(ws.text(), sa, psw,
                                   GlobalUtilityKind::kSum);
  EXPECT_TRUE(exhaustive.SupportsConcurrentQuery());
  EXPECT_GT(exhaustive.SizeInBytes(), 0u);

  // The polymorphic path answers identically to the direct one.
  const Text pattern = ws.Fragment(0, 3);
  QueryEngine& as_engine = uet;
  EXPECT_DOUBLE_EQ(as_engine.Query(pattern).utility,
                   uet.Utility(pattern));
}

using QueryEngineDeathTest = ::testing::Test;

TEST(QueryEngineDeathTest, UnwiredExhaustiveEngineFailsLoudly) {
  // Earlier tests in this binary spawn pool threads; fork-based "fast"
  // death tests would warn, so re-exec instead.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Text pattern = testing::T("ab");
  ASSERT_DEATH(
      {
        ExhaustiveQueryEngine unwired;
        unwired.Compute(pattern);
      },
      "USI_CHECK");
}

}  // namespace
}  // namespace usi
