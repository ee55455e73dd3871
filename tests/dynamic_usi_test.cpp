// Tests for the append-only DynamicUsi (Section X): equivalence with a
// from-scratch rebuild at every checkpoint, tracked-set maintenance across
// appends, staleness accounting.

#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "usi/core/dynamic_usi.hpp"
#include "usi/core/usi_index.hpp"
#include "usi/text/generators.hpp"

namespace usi {
namespace {

TEST(DynamicUsi, MatchesStaticIndexAfterSeedBuild) {
  const WeightedString ws = testing::RandomWeighted(300, 3, 5);
  DynamicUsiOptions options;
  options.k = 50;
  const DynamicUsi dynamic(ws, options);
  UsiOptions static_options;
  static_options.k = 50;
  const UsiIndex static_index(ws, static_options);
  Rng rng(6);
  for (int trial = 0; trial < 300; ++trial) {
    const index_t len = static_cast<index_t>(rng.UniformInRange(1, 6));
    const index_t start =
        static_cast<index_t>(rng.UniformBelow(ws.size() - len));
    const Text pattern = ws.Fragment(start, len);
    const QueryResult d = dynamic.Query(pattern);
    const QueryResult s = static_index.Query(pattern);
    ASSERT_EQ(d.occurrences, s.occurrences);
    ASSERT_NEAR(d.utility, s.utility, 1e-9);
  }
}

TEST(DynamicUsi, StaysExactAcrossAppendsWithoutRefresh) {
  // After appends the tracked set is stale in membership but its cached
  // utilities must stay exact; fallback queries are exact by construction.
  const WeightedString seed = testing::RandomWeighted(150, 2, 7);
  DynamicUsiOptions options;
  options.k = 30;
  DynamicUsi dynamic(seed, options);

  Rng rng(8);
  Text full = seed.text();
  std::vector<double> weights = seed.weights();
  for (int step = 0; step < 100; ++step) {
    const Symbol c = static_cast<Symbol>(rng.UniformBelow(2));
    const double w = rng.UniformDouble();
    dynamic.Append(c, w);
    full.push_back(c);
    weights.push_back(w);
  }
  EXPECT_EQ(dynamic.StalenessBound(), 100u);

  const WeightedString current(full, weights);
  for (int trial = 0; trial < 300; ++trial) {
    const index_t len = static_cast<index_t>(rng.UniformInRange(1, 5));
    const index_t start =
        static_cast<index_t>(rng.UniformBelow(current.size() - len));
    const Text pattern = current.Fragment(start, len);
    const QueryResult got = dynamic.Query(pattern);
    const QueryResult want =
        testing::BruteUtility(current, pattern, GlobalUtilityKind::kSum);
    ASSERT_EQ(got.occurrences, want.occurrences)
        << "pattern at " << start << " len " << len;
    ASSERT_NEAR(got.utility, want.utility, 1e-9);
  }
}

TEST(DynamicUsi, RefreshRestoresTopKMembership) {
  const WeightedString seed = testing::RandomWeighted(100, 2, 9);
  DynamicUsiOptions options;
  options.k = 20;
  DynamicUsi dynamic(seed, options);
  Rng rng(10);
  for (int step = 0; step < 50; ++step) {
    dynamic.Append(static_cast<Symbol>(rng.UniformBelow(2)),
                   rng.UniformDouble());
  }
  dynamic.RefreshTopK();
  EXPECT_EQ(dynamic.StalenessBound(), 0u);
  EXPECT_GT(dynamic.TrackedEntries(), 0u);
  EXPECT_LE(dynamic.TrackedEntries(), 20u);
  // After a refresh, the most frequent substring must hit the table.
  const Text top1(1, [&] {
    index_t count0 = 0;
    for (Symbol s : dynamic.text()) count0 += (s == 0);
    return count0 * 2 >= dynamic.text().size() ? Symbol{0} : Symbol{1};
  }());
  EXPECT_TRUE(dynamic.Query(top1).from_hash_table);
}

TEST(DynamicUsi, BuildFromEmptyByAppends) {
  DynamicUsiOptions options;
  options.k = 10;
  DynamicUsi dynamic(options);
  const WeightedString ws = testing::RandomWeighted(80, 3, 11);
  for (index_t i = 0; i < ws.size(); ++i) {
    dynamic.Append(ws.letter(i), ws.weight(i));
    // Spot-check exactness mid-stream every 16 appends.
    if (i % 16 == 15) {
      const WeightedString prefix = ws.Prefix(i + 1);
      const Text pattern = prefix.Fragment(i / 2, std::min<index_t>(3, i / 2 + 1));
      const QueryResult got = dynamic.Query(pattern);
      const QueryResult want =
          testing::BruteUtility(prefix, pattern, GlobalUtilityKind::kSum);
      ASSERT_EQ(got.occurrences, want.occurrences) << "prefix " << i + 1;
      ASSERT_NEAR(got.utility, want.utility, 1e-9);
    }
  }
  EXPECT_EQ(dynamic.size(), ws.size());
}

TEST(DynamicUsi, MinUtilityKindAlsoExact) {
  const WeightedString seed = testing::RandomWeighted(120, 2, 13);
  DynamicUsiOptions options;
  options.k = 25;
  options.utility = GlobalUtilityKind::kMin;
  DynamicUsi dynamic(seed, options);
  Rng rng(14);
  std::vector<double> appended_weights;
  for (int step = 0; step < 40; ++step) {
    const Symbol c = static_cast<Symbol>(rng.UniformBelow(2));
    const double w = rng.UniformDouble();
    dynamic.Append(c, w);
    appended_weights.push_back(w);
  }
  const Text full = dynamic.text();
  std::vector<double> weights = seed.weights();
  weights.insert(weights.end(), appended_weights.begin(),
                 appended_weights.end());
  const WeightedString current(full, weights);
  for (int trial = 0; trial < 100; ++trial) {
    const index_t len = static_cast<index_t>(rng.UniformInRange(1, 4));
    const index_t start =
        static_cast<index_t>(rng.UniformBelow(current.size() - len));
    const Text pattern = current.Fragment(start, len);
    const QueryResult got = dynamic.Query(pattern);
    const QueryResult want =
        testing::BruteUtility(current, pattern, GlobalUtilityKind::kMin);
    ASSERT_NEAR(got.utility, want.utility, 1e-9);
  }
}

TEST(DynamicUsi, AppendHeavyDifferentialAllUtilityKinds) {
  // Append-heavy schedule pinned three ways for every aggregation kind:
  // against brute force and against a freshly built static UsiIndex over
  // the same content, at periodic checkpoints.
  for (const GlobalUtilityKind kind :
       {GlobalUtilityKind::kSum, GlobalUtilityKind::kMin,
        GlobalUtilityKind::kMax, GlobalUtilityKind::kAvg}) {
    const WeightedString seed = testing::RandomWeighted(120, 3, 21);
    DynamicUsiOptions options;
    options.k = 25;
    options.utility = kind;
    DynamicUsi dynamic(seed, options);
    Rng rng(22 + static_cast<u64>(kind));
    Text full = seed.text();
    std::vector<double> weights = seed.weights();
    for (int step = 0; step < 150; ++step) {
      const Symbol c = static_cast<Symbol>(rng.UniformBelow(3));
      const double w = rng.UniformDouble();
      dynamic.Append(c, w);
      full.push_back(c);
      weights.push_back(w);
      if (step % 25 != 24) continue;
      const WeightedString current(full, weights);
      UsiOptions static_options;
      static_options.k = 25;
      static_options.utility = kind;
      const UsiIndex rebuilt(current, static_options);
      for (int trial = 0; trial < 40; ++trial) {
        const index_t len = static_cast<index_t>(rng.UniformInRange(1, 5));
        const index_t start =
            static_cast<index_t>(rng.UniformBelow(current.size() - len));
        const Text pattern = current.Fragment(start, len);
        const QueryResult got = dynamic.Query(pattern);
        const QueryResult brute = testing::BruteUtility(current, pattern, kind);
        const QueryResult fresh = rebuilt.Query(pattern);
        ASSERT_EQ(got.occurrences, brute.occurrences)
            << GlobalUtilityKindName(kind) << " step " << step;
        ASSERT_NEAR(got.utility, brute.utility, 1e-9)
            << GlobalUtilityKindName(kind) << " step " << step;
        ASSERT_EQ(got.occurrences, fresh.occurrences);
        ASSERT_NEAR(got.utility, fresh.utility, 1e-9);
      }
    }
  }
}

TEST(DynamicUsi, SizeGrows) {
  DynamicUsi dynamic;
  const std::size_t empty_size = dynamic.SizeInBytes();
  for (int i = 0; i < 1000; ++i) dynamic.Append(static_cast<Symbol>(i % 3), 1.0);
  EXPECT_GT(dynamic.SizeInBytes(), empty_size);
}

}  // namespace
}  // namespace usi
