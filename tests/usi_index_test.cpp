// Tests for USI_TOP-K (UET and UAT): exactness against brute force for all
// utility kinds, hash-table hit behavior, tuning telemetry, edge cases.

#include <memory>

#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "usi/core/usi_builder.hpp"
#include "usi/core/usi_index.hpp"
#include "usi/topk/approximate_topk.hpp"
#include "usi/topk/substring_stats.hpp"
#include "usi/text/generators.hpp"

namespace usi {
namespace {

TEST(UsiIndex, PaperExampleOne) {
  const Text s = testing::T("ATACCCCGATAATACCCCAG");
  const std::vector<double> w = {0.9, 1, 3,   2, 0.7, 1, 1, 0.6, 0.5, 0.5,
                                 0.5, 0.8, 1, 1, 1,   0.9, 1, 1, 0.8, 1};
  const WeightedString ws(s, w);
  UsiOptions options;
  options.k = 10;
  const UsiIndex index(ws, options);
  EXPECT_NEAR(index.Utility(testing::T("TACCCC")), 14.6, 1e-9);
}

TEST(UsiIndex, AllSubstringQueriesMatchBruteForce) {
  const WeightedString ws = testing::RandomWeighted(120, 3, 7);
  UsiOptions options;
  options.k = 40;
  const UsiIndex index(ws, options);
  // Query *every* substring of the text (both table hits and fallbacks).
  for (index_t i = 0; i < ws.size(); ++i) {
    for (index_t len = 1; len <= 10 && i + len <= ws.size(); ++len) {
      const Text pattern = ws.Fragment(i, len);
      const QueryResult got = index.Query(pattern);
      const QueryResult want =
          testing::BruteUtility(ws, pattern, GlobalUtilityKind::kSum);
      ASSERT_EQ(got.occurrences, want.occurrences);
      ASSERT_NEAR(got.utility, want.utility, 1e-9)
          << "i=" << i << " len=" << len;
    }
  }
}

class UsiKindTest : public ::testing::TestWithParam<GlobalUtilityKind> {};

TEST_P(UsiKindTest, QueriesMatchBruteForce) {
  const WeightedString ws = testing::RandomWeighted(200, 4, 13);
  UsiOptions options;
  options.k = 60;
  options.utility = GetParam();
  const UsiIndex index(ws, options);
  Rng rng(14);
  for (int trial = 0; trial < 300; ++trial) {
    const index_t len = static_cast<index_t>(rng.UniformInRange(1, 8));
    const index_t start =
        static_cast<index_t>(rng.UniformBelow(ws.size() - len));
    const Text pattern = ws.Fragment(start, len);
    const QueryResult got = index.Query(pattern);
    const QueryResult want = testing::BruteUtility(ws, pattern, GetParam());
    ASSERT_EQ(got.occurrences, want.occurrences);
    ASSERT_NEAR(got.utility, want.utility, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, UsiKindTest,
    ::testing::Values(GlobalUtilityKind::kSum, GlobalUtilityKind::kMin,
                      GlobalUtilityKind::kMax, GlobalUtilityKind::kAvg),
    [](const ::testing::TestParamInfo<GlobalUtilityKind>& info) {
      return GlobalUtilityKindName(info.param);
    });

TEST(UsiIndex, TopKQueriesHitTheHashTable) {
  const WeightedString ws = testing::RandomWeighted(500, 2, 3);
  UsiOptions options;
  options.k = 50;
  const UsiIndex index(ws, options);
  // The top-K frequent substrings must be answered from H.
  SubstringStats stats(ws.text());
  const TopKList mined = stats.TopK(50);
  std::size_t hits = 0;
  for (const TopKSubstring& item : mined.items) {
    const Text pattern(ws.text().begin() + item.witness,
                       ws.text().begin() + item.witness + item.length);
    const QueryResult result = index.Query(pattern);
    hits += result.from_hash_table;
    EXPECT_EQ(result.occurrences, item.frequency);
  }
  EXPECT_EQ(hits, mined.items.size());
}

TEST(UsiIndex, InfrequentQueriesUseFallback) {
  const WeightedString ws = testing::RandomWeighted(800, 4, 31);
  UsiOptions options;
  options.k = 10;  // Tiny table: most patterns fall through.
  const UsiIndex index(ws, options);
  const index_t tau = index.build_info().tau_k;
  // A pattern rarer than tau_K cannot be in H.
  Rng rng(32);
  int fallbacks = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const index_t start = static_cast<index_t>(rng.UniformBelow(ws.size() - 8));
    const Text pattern = ws.Fragment(start, 8);
    const QueryResult result = index.Query(pattern);
    if (!result.from_hash_table) {
      ++fallbacks;
      EXPECT_LE(result.occurrences, tau)
          << "fallback pattern more frequent than tau_K";
    }
  }
  EXPECT_GT(fallbacks, 0);
}

TEST(UsiIndex, BuildInfoIsConsistent) {
  const WeightedString ws = testing::RandomWeighted(1000, 3, 17);
  UsiOptions options;
  options.k = 100;
  const UsiIndex index(ws, options);
  const UsiBuildInfo& info = index.build_info();
  EXPECT_EQ(info.k, 100u);
  EXPECT_GE(info.tau_k, 1u);
  EXPECT_GE(info.num_lengths, 1u);
  EXPECT_GT(info.total_seconds, 0.0);
  // H has at most K entries (substrings sharing frequency keep it <= K).
  EXPECT_LE(index.HashTableEntries(), 100u);
  EXPECT_GT(index.HashTableEntries(), 0u);
}

TEST(UsiIndex, UatMatchesBruteForceToo) {
  const WeightedString ws = testing::RandomWeighted(400, 3, 23);
  UsiOptions options;
  options.k = 50;
  ApproximateTopKOptions approx;
  approx.rounds = 3;
  const std::unique_ptr<UsiIndex> index =
      UsiBuilder(ws, options).Build(ApproximateTopK(ws.text(), 50, approx));
  ASSERT_NE(index, nullptr);
  EXPECT_STREQ(index->Name(), "UAT");
  Rng rng(24);
  for (int trial = 0; trial < 300; ++trial) {
    const index_t len = static_cast<index_t>(rng.UniformInRange(1, 6));
    const index_t start =
        static_cast<index_t>(rng.UniformBelow(ws.size() - len));
    const Text pattern = ws.Fragment(start, len);
    const QueryResult got = index->Query(pattern);
    const QueryResult want =
        testing::BruteUtility(ws, pattern, GlobalUtilityKind::kSum);
    // UAT table entries hold exact utilities (the window pass aggregates all
    // true occurrences); fallback queries are exact as well.
    ASSERT_EQ(got.occurrences, want.occurrences);
    ASSERT_NEAR(got.utility, want.utility, 1e-9);
  }
}

TEST(UsiIndex, EdgeCases) {
  const WeightedString ws = testing::RandomWeighted(50, 2, 5);
  const UsiIndex index(ws, {});
  EXPECT_DOUBLE_EQ(index.Query({}).utility, 0.0);
  const Text too_long(100, 0);
  EXPECT_DOUBLE_EQ(index.Query(too_long).utility, 0.0);
  const Text absent = {5};
  EXPECT_EQ(index.Query(absent).occurrences, 0u);
}

TEST(UsiIndex, KEqualsOneStillWorks) {
  const WeightedString ws = testing::RandomWeighted(200, 2, 41);
  UsiOptions options;
  options.k = 1;
  const UsiIndex index(ws, options);
  EXPECT_EQ(index.HashTableEntries(), 1u);
  const QueryResult result = index.Query(ws.Fragment(0, 2));
  EXPECT_EQ(result.occurrences,
            testing::BruteUtility(ws, ws.Fragment(0, 2), GlobalUtilityKind::kSum)
                .occurrences);
}

TEST(UsiIndex, HugeKCoversEverySubstringLength) {
  const WeightedString ws = testing::RandomWeighted(60, 2, 43);
  UsiOptions options;
  options.k = 100000;  // More than all distinct substrings.
  const UsiIndex index(ws, options);
  // Now every substring query must hit the table.
  for (index_t i = 0; i < ws.size(); i += 3) {
    for (index_t len = 1; len <= 5 && i + len <= ws.size(); ++len) {
      EXPECT_TRUE(index.Query(ws.Fragment(i, len)).from_hash_table);
    }
  }
}

TEST(UsiIndex, SizeAccountingIsPositive) {
  const WeightedString ws = testing::RandomWeighted(500, 4, 47);
  const UsiIndex index(ws, {});
  EXPECT_GT(index.SizeInBytes(),
            ws.size() * (sizeof(index_t) + sizeof(double)));
}

}  // namespace
}  // namespace usi
