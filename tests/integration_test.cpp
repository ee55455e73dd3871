// End-to-end integration tests: the full pipeline on each synthetic dataset
// (mine -> build UET/UAT -> run workloads -> cross-check engines), plus the
// case-study and Example-2 shapes the paper reports.

#include <memory>

#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "usi/core/baselines.hpp"
#include "usi/core/usi_builder.hpp"
#include "usi/core/usi_index.hpp"
#include "usi/core/workload.hpp"
#include "usi/suffix/suffix_array.hpp"
#include "usi/text/dataset.hpp"
#include "usi/topk/approximate_topk.hpp"
#include "usi/topk/measures.hpp"
#include "usi/topk/substring_stats.hpp"

namespace usi {
namespace {

class DatasetPipeline : public ::testing::TestWithParam<const char*> {};

TEST_P(DatasetPipeline, AllEnginesAgreeOnW1) {
  const DatasetSpec& spec = DatasetSpecByName(GetParam());
  const WeightedString ws = MakeDataset(spec, 20'000);
  const index_t n = ws.size();

  SubstringStats stats(ws.text());
  const TopKList pool = stats.TopK(n / 50);

  WorkloadOptions wopts;
  wopts.num_queries = 300;
  wopts.random_max_len = 200;
  wopts.seed = spec.seed;
  const Workload workload = MakeWorkloadW1(ws.text(), pool.items, wopts);

  UsiOptions uet_options;
  uet_options.k = n / 100;
  const UsiIndex uet(ws, uet_options);

  ApproximateTopKOptions approx;
  approx.rounds = spec.default_s;
  const std::unique_ptr<UsiIndex> uat = UsiBuilder(ws, uet_options)
      .Build(ApproximateTopK(ws.text(), uet_options.k, approx));
  ASSERT_NE(uat, nullptr);

  const std::vector<index_t> sa = BuildSuffixArray(ws.text());
  const PrefixSumWeights psw(ws);
  BaselineContext context;
  context.ws = &ws;
  context.sa = &sa;
  context.psw = &psw;
  context.cache_capacity = n / 100;
  auto bsl1 = MakeBaseline(BaselineKind::kBsl1, context);
  auto bsl3 = MakeBaseline(BaselineKind::kBsl3, context);

  std::size_t uet_hits = 0;
  for (const Text& pattern : workload.patterns) {
    const QueryResult want = bsl1->Query(pattern);
    const QueryResult from_uet = uet.Query(pattern);
    const QueryResult from_uat = uat->Query(pattern);
    const QueryResult from_b3 = bsl3->Query(pattern);
    ASSERT_EQ(from_uet.occurrences, want.occurrences);
    ASSERT_NEAR(from_uet.utility, want.utility, 1e-6 * (1 + std::abs(want.utility)));
    ASSERT_NEAR(from_uat.utility, want.utility, 1e-6 * (1 + std::abs(want.utility)));
    ASSERT_NEAR(from_b3.utility, want.utility, 1e-6 * (1 + std::abs(want.utility)));
    uet_hits += from_uet.from_hash_table;
  }
  // The W1 pool is the top-(n/50) frequent substrings while UET stores the
  // top-(n/100): about half of the ~95% frequent queries land in H, as in
  // the paper's setup (Example 2 uses the same n/50-pool vs n/100-table mix).
  const double hit_fraction =
      static_cast<double>(uet_hits) / workload.patterns.size();
  EXPECT_GT(hit_fraction, 0.35) << spec.name;
  EXPECT_LT(hit_fraction, 0.70) << spec.name;
}

INSTANTIATE_TEST_SUITE_P(Datasets, DatasetPipeline,
                         ::testing::Values("ADV", "IOT", "XML", "HUM",
                                           "ECOLI"));

TEST(Integration, CaseStudyShape) {
  // Table I: the top-4 substrings by global utility differ from the top-4 by
  // frequency on CTR-weighted advertising data, because rare-but-valuable
  // category motifs out-earn frequent cheap ones.
  const DatasetSpec& spec = DatasetSpecByName("ADV");
  const WeightedString ws = MakeDataset(spec, 30'000);
  UsiOptions options;
  options.k = 3000;
  const UsiIndex index(ws, options);

  SubstringStats stats(ws.text());
  const TopKList frequent = stats.TopK(3000);

  // Rank all length >= 3 mined substrings by global utility.
  struct Ranked {
    double utility;
    index_t frequency;
  };
  std::vector<Ranked> by_utility;
  std::vector<index_t> top_frequent_freqs;
  for (const TopKSubstring& item : frequent.items) {
    if (item.length < 3) continue;
    const Text pattern(ws.text().begin() + item.witness,
                       ws.text().begin() + item.witness + item.length);
    by_utility.push_back({index.Utility(pattern), item.frequency});
    if (top_frequent_freqs.size() < 4) {
      top_frequent_freqs.push_back(item.frequency);
    }
  }
  ASSERT_GE(by_utility.size(), 8u);
  std::sort(by_utility.begin(), by_utility.end(),
            [](const Ranked& a, const Ranked& b) { return a.utility > b.utility; });
  // The utility champion should NOT be the frequency champion (Table Ia/Ib).
  EXPECT_NE(by_utility[0].frequency, top_frequent_freqs[0]);
}

TEST(Integration, Example2SpeedupShape) {
  // Example 2: for frequent patterns, the hash-table path avoids touching
  // the occurrence lists entirely — verify the work reduction structurally
  // (occurrences aggregated vs. returned from H).
  const WeightedString ws = MakeDataset(DatasetSpecByName("HUM"), 100'000);
  UsiOptions options;
  options.k = ws.size() / 100;
  const UsiIndex index(ws, options);

  SubstringStats stats(ws.text());
  const TopKList pool = stats.TopK(ws.size() / 50);
  // Length-8 patterns among the frequent pool (the paper queries 8-mers).
  int tested = 0;
  for (const TopKSubstring& item : pool.items) {
    if (item.length != 8 || tested >= 100) continue;
    ++tested;
    const Text pattern(ws.text().begin() + item.witness,
                       ws.text().begin() + item.witness + item.length);
    const QueryResult result = index.Query(pattern);
    if (item.frequency >= index.build_info().tau_k) {
      // Frequent 8-mers answered in O(m) from H.
      EXPECT_TRUE(result.from_hash_table);
    }
    EXPECT_EQ(result.occurrences, item.frequency);
  }
  EXPECT_GT(tested, 10);
}

TEST(Integration, ApproximateMinerAccuracyOnDatasets) {
  // Fig. 3 headline: AT is accurate at the default s on every dataset.
  for (const char* name : {"ADV", "XML", "HUM"}) {
    const DatasetSpec& spec = DatasetSpecByName(name);
    const WeightedString ws = MakeDataset(spec, 15'000);
    const u64 k = ws.size() / 100;
    SubstringStats stats(ws.text());
    const TopKList exact = stats.TopK(k);
    ApproximateTopKOptions aopts;
    aopts.rounds = spec.default_s;
    const TopKList approx = ApproximateTopK(ws.text(), k, aopts);
    EXPECT_GE(TopKAccuracyPercent(exact.items, approx.items), 60.0) << name;
    EXPECT_GE(TopKNdcg(exact.items, approx.items), 0.9) << name;
  }
}

}  // namespace
}  // namespace usi
