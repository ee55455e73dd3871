// Tests for the ESA lcp-interval enumeration: node frequencies, q(v) sums,
// interval consistency — all against brute-force substring statistics.

#include <map>
#include <string>

#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "usi/parallel/thread_pool.hpp"
#include "usi/suffix/esa.hpp"
#include "usi/suffix/lcp_array.hpp"
#include "usi/suffix/suffix_array.hpp"
#include "usi/text/generators.hpp"

namespace usi {
namespace {

struct EsaView {
  std::vector<index_t> sa;
  std::vector<index_t> lcp;
  std::vector<SuffixTreeNode> nodes;
};

EsaView BuildView(const Text& text) {
  EsaView view;
  view.sa = BuildSuffixArray(text);
  view.lcp = BuildLcpArray(text, view.sa);
  view.nodes = CollectSuffixTreeNodes(
      view.lcp,
      DenseSuffixLengthView{view.sa, static_cast<index_t>(text.size())});
  return view;
}

TEST(Esa, BananaNodeInventory) {
  const Text text = testing::T("banana");
  const EsaView view = BuildView(text);
  // Every distinct substring must be covered by exactly one node's edge range.
  u64 total_distinct = 0;
  for (const SuffixTreeNode& node : view.nodes) {
    total_distinct += node.edge_length();
  }
  EXPECT_EQ(total_distinct, testing::BruteSubstringFrequencies(text).size());
}

TEST(Esa, NodeFrequenciesMatchBruteForce) {
  const Text text = testing::T("abracadabra");
  const EsaView view = BuildView(text);
  const auto brute = testing::BruteSubstringFrequencies(text);
  for (const SuffixTreeNode& node : view.nodes) {
    // Every substring represented by this node (each length on its edge)
    // occurs exactly node.frequency() times.
    for (index_t len = node.parent_depth + 1; len <= node.depth; ++len) {
      std::string s;
      for (index_t k = 0; k < len; ++k) {
        s.push_back(static_cast<char>(text[view.sa[node.lb] + k]));
      }
      auto it = brute.find(s);
      ASSERT_NE(it, brute.end()) << s;
      EXPECT_EQ(node.frequency(), it->second) << s;
    }
  }
}

TEST(Esa, IntervalsContainExactlyTheOccurrences) {
  const Text text = MakeDnaLike(400, 12).text();
  const EsaView view = BuildView(text);
  int checked = 0;
  for (const SuffixTreeNode& node : view.nodes) {
    if (node.depth > 12 || checked > 200) continue;
    ++checked;
    const Text pattern(text.begin() + view.sa[node.lb],
                       text.begin() + view.sa[node.lb] + node.depth);
    const auto brute = testing::BruteOccurrences(text, pattern);
    ASSERT_EQ(brute.size(), node.frequency());
    // SA[lb..rb] is exactly the occurrence set.
    std::vector<index_t> from_interval;
    for (index_t k = node.lb; k <= node.rb; ++k) {
      from_interval.push_back(view.sa[k]);
    }
    std::sort(from_interval.begin(), from_interval.end());
    EXPECT_EQ(from_interval, brute);
  }
  EXPECT_GT(checked, 10);
}

class EsaSweep : public ::testing::TestWithParam<std::pair<index_t, u32>> {};

TEST_P(EsaSweep, DistinctSubstringCountMatchesBruteForce) {
  const auto [n, sigma] = GetParam();
  const Text text = testing::RandomText(n, sigma, n * 31 + sigma);
  const EsaView view = BuildView(text);
  u64 total = 0;
  for (const SuffixTreeNode& node : view.nodes) total += node.edge_length();
  EXPECT_EQ(total, testing::BruteSubstringFrequencies(text).size());
}

TEST_P(EsaSweep, StructuralInvariants) {
  const auto [n, sigma] = GetParam();
  const Text text = testing::RandomText(n, sigma, n * 17 + sigma);
  const EsaView view = BuildView(text);
  for (const SuffixTreeNode& node : view.nodes) {
    EXPECT_LT(node.parent_depth, node.depth);
    EXPECT_LE(node.lb, node.rb);
    EXPECT_LT(node.rb, text.size());
    EXPECT_GE(node.frequency(), 1u);
    // String depth cannot exceed the shortest suffix in the interval.
    EXPECT_LE(node.depth, text.size() - view.sa[node.lb]);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EsaSweep,
                         ::testing::Values(std::pair<index_t, u32>{1, 2},
                                           std::pair<index_t, u32>{2, 2},
                                           std::pair<index_t, u32>{3, 2},
                                           std::pair<index_t, u32>{20, 2},
                                           std::pair<index_t, u32>{50, 3},
                                           std::pair<index_t, u32>{100, 4},
                                           std::pair<index_t, u32>{200, 2},
                                           std::pair<index_t, u32>{150, 26}));

TEST(Esa, UnaryString) {
  const Text text(8, 1);  // "aaaaaaaa": substrings a^1..a^8, freq 8..1.
  const EsaView view = BuildView(text);
  std::map<index_t, index_t> freq_by_len;
  for (const SuffixTreeNode& node : view.nodes) {
    for (index_t len = node.parent_depth + 1; len <= node.depth; ++len) {
      freq_by_len[len] = node.frequency();
    }
  }
  ASSERT_EQ(freq_by_len.size(), 8u);
  for (index_t len = 1; len <= 8; ++len) {
    EXPECT_EQ(freq_by_len[len], 9 - len);
  }
}

TEST(Esa, ChunksFallBackToOneWhenStacksAreDeep) {
  // A unary text's open-interval stack holds every step so far, so
  // snapshots at 16 boundaries would copy ~8m entries: one chunk instead.
  // Random text keeps a shallow stack and still chunks.
  constexpr index_t n = index_t{1} << 16;
  ThreadPool pool(4);
  const EsaView unary = BuildView(Text(n, 1));
  EXPECT_EQ(EsaChunks(unary.lcp, &pool).size(), 1u);
  const EsaView random = BuildView(MakeRandom(n, 4, 0xE5A).text());
  const EsaChunks chunks(random.lcp, &pool);
  EXPECT_GT(chunks.size(), 1u);

  // The chunked pass still emits exactly the sequential node sequence.
  std::vector<std::vector<SuffixTreeNode>> per_chunk(chunks.size());
  chunks.Enumerate(random.lcp, DenseSuffixLengthView{random.sa, n}, &pool,
                   [&](std::size_t c, const SuffixTreeNode& node) {
                     per_chunk[c].push_back(node);
                   });
  std::vector<SuffixTreeNode> joined;
  for (const auto& nodes : per_chunk) {
    joined.insert(joined.end(), nodes.begin(), nodes.end());
  }
  EXPECT_TRUE(joined == random.nodes);
}

TEST(Esa, SparseEnumerationOnSubset) {
  // The same traversal must work for a sparse suffix set: take every other
  // suffix of "banana" by hand.
  const Text text = testing::T("banana");
  // Suffixes at positions 0,2,4: "banana", "nana", "na".
  // Sorted: banana(0), na(4), nana(2); lcp: 0, 0, 2.
  const std::vector<index_t> lcp = {0, 0, 2};
  const std::vector<index_t> suffix_len = {6, 2, 4};
  const auto nodes = CollectSuffixTreeNodes(lcp, suffix_len);
  // Expected: leaf "banana" {6,0}, leaf "na" -> depth 2 == parent 2 skipped,
  // leaf "nana" {4,2}, internal "na" {2,0} covering [1,2].
  bool found_na_internal = false;
  for (const SuffixTreeNode& node : nodes) {
    if (node.depth == 2 && node.lb == 1 && node.rb == 2) {
      found_na_internal = true;
      EXPECT_EQ(node.frequency(), 2u);
      EXPECT_EQ(node.parent_depth, 0u);
    }
  }
  EXPECT_TRUE(found_na_internal);
  u64 total = 0;
  for (const SuffixTreeNode& node : nodes) total += node.edge_length();
  // Distinct strings among {banana..., nana..., na...} prefixes:
  // banana:6 + nana:4 + na:2 - shared: "n","na" counted once => 6+4+2-2 = 10.
  EXPECT_EQ(total, 10u);
}

}  // namespace
}  // namespace usi
