// Tests for the two extension features: the (tau, K, L) trade-off curve
// (Section X future-work direction 2) and index save / heap-read round
// trips.

#include <unistd.h>

#include <cstdio>

#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "usi/core/usi_index.hpp"
#include "usi/text/generators.hpp"
#include "usi/topk/substring_stats.hpp"

namespace usi {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(TradeOffCurve, MonotoneAndConsistentWithTau) {
  const Text text = MakeAdvLike(5000, 3).text();
  SubstringStats stats(text);
  const auto curve = stats.TradeOffCurve();
  ASSERT_FALSE(curve.empty());
  for (std::size_t i = 0; i < curve.size(); ++i) {
    // Each point must agree with the tau-tuning query (task iii).
    const auto tuning = stats.EstimateForTau(curve[i].tau);
    EXPECT_EQ(tuning.num_substrings, curve[i].k);
    EXPECT_EQ(tuning.num_lengths, curve[i].num_lengths);
    if (i > 0) {
      EXPECT_LT(curve[i].tau, curve[i - 1].tau);  // tau strictly decreasing.
      EXPECT_GT(curve[i].k, curve[i - 1].k);      // K strictly increasing.
      EXPECT_GE(curve[i].num_lengths, curve[i - 1].num_lengths);
    }
  }
  // The last point covers the entire substring universe.
  EXPECT_EQ(curve.back().k, stats.TotalDistinctSubstrings());
  EXPECT_EQ(curve.back().tau, 1u);
}

TEST(TradeOffCurve, RecommendForBudget) {
  const Text text = testing::RandomText(2000, 3, 9);
  SubstringStats stats(text);
  const auto curve = stats.TradeOffCurve();
  // A budget exactly at a curve point returns that point.
  const auto mid = curve[curve.size() / 2];
  const auto exact_fit = stats.RecommendForBudget(mid.k);
  EXPECT_EQ(exact_fit.k, mid.k);
  EXPECT_EQ(exact_fit.tau, mid.tau);
  // A budget between points returns the smaller one.
  if (curve.size() >= 2) {
    const auto between = stats.RecommendForBudget(curve[1].k - 1);
    EXPECT_EQ(between.k, curve[0].k);
  }
  // A budget below the smallest K returns the zero point.
  const auto too_small = stats.RecommendForBudget(curve[0].k - 1);
  EXPECT_EQ(too_small.k, 0u);
  // An unlimited budget returns the full universe.
  const auto unlimited = stats.RecommendForBudget(~u64{0});
  EXPECT_EQ(unlimited.k, stats.TotalDistinctSubstrings());
}

TEST(TradeOffCurve, DrivesUsableUsiOptions) {
  // End-to-end: pick an operating point under a budget, build the index,
  // verify the advertised tau matches the build telemetry.
  const WeightedString ws = testing::RandomWeighted(3000, 4, 21);
  SubstringStats stats(ws.text());
  const auto point = stats.RecommendForBudget(500);
  ASSERT_GT(point.k, 0u);
  UsiOptions options;
  options.k = point.k;
  const UsiIndex index(ws, options);
  EXPECT_EQ(index.build_info().tau_k, point.tau);
}

TEST(Serialization, SaveLoadRoundTripPreservesAnswers) {
  const WeightedString ws = testing::RandomWeighted(1500, 3, 5);
  UsiOptions options;
  options.k = 200;
  options.utility = GlobalUtilityKind::kAvg;
  const UsiIndex original(ws, options);
  const std::string path = TempPath("usi_index_roundtrip.bin");
  ASSERT_TRUE(original.SaveToFile(path));

  const auto loaded = UsiIndex::LoadFromFile(ws, path);
  ASSERT_NE(loaded, nullptr);
  EXPECT_FALSE(loaded->IsMapped());
  EXPECT_EQ(loaded->utility_kind(), GlobalUtilityKind::kAvg);
  EXPECT_EQ(loaded->HashTableEntries(), original.HashTableEntries());
  EXPECT_EQ(loaded->build_info().tau_k, original.build_info().tau_k);

  Rng rng(6);
  for (int trial = 0; trial < 400; ++trial) {
    const index_t len = static_cast<index_t>(rng.UniformInRange(1, 7));
    const index_t start =
        static_cast<index_t>(rng.UniformBelow(ws.size() - len));
    const Text pattern = ws.Fragment(start, len);
    const QueryResult a = original.Query(pattern);
    const QueryResult b = loaded->Query(pattern);
    ASSERT_EQ(a.occurrences, b.occurrences);
    ASSERT_DOUBLE_EQ(a.utility, b.utility);
    ASSERT_EQ(a.from_hash_table, b.from_hash_table);
  }
}

TEST(Serialization, RejectsWrongText) {
  const WeightedString ws = testing::RandomWeighted(800, 3, 7);
  const UsiIndex original(ws, {});
  const std::string path = TempPath("usi_index_wrong_text.bin");
  ASSERT_TRUE(original.SaveToFile(path));
  const WeightedString other = testing::RandomWeighted(900, 3, 8);
  EXPECT_EQ(UsiIndex::LoadFromFile(other, path), nullptr);
}

TEST(Serialization, RejectsCorruptedFile) {
  const WeightedString ws = testing::RandomWeighted(500, 2, 9);
  const UsiIndex original(ws, {});
  const std::string path = TempPath("usi_index_corrupt.bin");
  ASSERT_TRUE(original.SaveToFile(path));
  // Truncate the file body.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    ASSERT_EQ(0, std::fflush(f));
    std::fclose(f);
    ASSERT_EQ(0, truncate(path.c_str(), size / 2));
  }
  EXPECT_EQ(UsiIndex::LoadFromFile(ws, path), nullptr);
  // Garbage magic.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    const u32 garbage = 0x1234;
    std::fwrite(&garbage, sizeof(garbage), 1, f);
    std::fclose(f);
  }
  EXPECT_EQ(UsiIndex::LoadFromFile(ws, path), nullptr);
}

TEST(Serialization, MissingFileReturnsNull) {
  const WeightedString ws = testing::RandomWeighted(100, 2, 1);
  EXPECT_EQ(UsiIndex::LoadFromFile(ws, "/nonexistent/usi.bin"), nullptr);
}

}  // namespace
}  // namespace usi
