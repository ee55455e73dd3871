// Tests for the online Ukkonen suffix tree: occurrence counting/collection
// at every streaming step, and node-summary agreement with the ESA view on
// sentinel-terminated texts. The tree stores no text, so every call passes
// the text it was built over; a count is the size of a collect.

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "usi/suffix/esa.hpp"
#include "usi/suffix/lcp_array.hpp"
#include "usi/suffix/suffix_array.hpp"
#include "usi/suffix/suffix_tree.hpp"
#include "usi/text/generators.hpp"
#include "usi/util/rng.hpp"

namespace usi {

/// Recounts a tree's heap bytes by walking every node, the reference for
/// SuffixTree's running count.
struct SuffixTreeInspector {
  static std::size_t WalkedBytes(const SuffixTree& tree) {
    std::size_t total = tree.nodes_.capacity() * sizeof(SuffixTree::Node);
    for (const SuffixTree::Node& node : tree.nodes_) {
      total += node.children.capacity() * sizeof(node.children[0]);
    }
    return total;
  }
};

namespace {

TEST(SuffixTree, CountsWhileStreaming) {
  const Text text = testing::T("abcabxabcd");
  SuffixTree tree;
  for (std::size_t end = 0; end < text.size(); ++end) {
    const Text prefix(text.begin(), text.begin() + end + 1);
    tree.Extend(prefix);
    // Check every substring of the current prefix up to length 4.
    for (index_t i = 0; i <= end; ++i) {
      for (index_t len = 1; len <= 4 && i + len <= prefix.size(); ++len) {
        const Text pattern(prefix.begin() + i, prefix.begin() + i + len);
        ASSERT_EQ(tree.CollectOccurrences(prefix, pattern).size(),
                  testing::BruteOccurrences(prefix, pattern).size())
            << "prefix len " << end + 1;
      }
    }
  }
}

TEST(SuffixTree, CountsOnPeriodicText) {
  const Text text = MakePeriodic(64, 2, 0).text();
  const SuffixTree tree(text);
  const Text absent = {5};  // Symbol 5 never occurs in (01)^32.
  EXPECT_EQ(tree.CollectOccurrences(text, absent).size(), 0u);
  const Text ab = {0, 1};
  EXPECT_EQ(tree.CollectOccurrences(text, ab).size(), 32u);
  const Text aba = {0, 1, 0};
  EXPECT_EQ(tree.CollectOccurrences(text, aba).size(), 31u);
  Text half;  // (ab)^16: occurs 17 times... compute via brute force instead.
  for (int i = 0; i < 32; ++i) half.push_back(static_cast<Symbol>(i % 2));
  EXPECT_EQ(tree.CollectOccurrences(text, half).size(),
            testing::BruteOccurrences(text, half).size());
}

TEST(SuffixTree, CollectOccurrencesMatchesBruteForce) {
  Rng rng(12);
  for (int round = 0; round < 10; ++round) {
    const Text text = testing::RandomText(200, 3, round + 100);
    const SuffixTree tree(text);
    for (int q = 0; q < 40; ++q) {
      const index_t len = static_cast<index_t>(rng.UniformInRange(1, 6));
      const index_t start =
          static_cast<index_t>(rng.UniformBelow(text.size() - len));
      const Text pattern(text.begin() + start, text.begin() + start + len);
      std::vector<index_t> got = tree.CollectOccurrences(text, pattern);
      std::sort(got.begin(), got.end());
      ASSERT_EQ(got, testing::BruteOccurrences(text, pattern));
    }
  }
}

TEST(SuffixTree, AbsentPatterns) {
  const Text text = testing::T("mississippi");
  const SuffixTree tree(text);
  EXPECT_EQ(tree.CollectOccurrences(text, testing::T("x")).size(), 0u);
  EXPECT_EQ(tree.CollectOccurrences(text, testing::T("ssissix")).size(), 0u);
  EXPECT_TRUE(tree.CollectOccurrences(text, testing::T("zz")).empty());
  EXPECT_TRUE(tree.CollectOccurrences(text, testing::T("ippis")).empty());
  EXPECT_FALSE(tree.CollectOccurrences(text, testing::T("issi")).empty());
}

TEST(SuffixTree, NodeSummariesMatchEsaOnSentinelTexts) {
  // With a unique final letter every suffix is an explicit leaf, so the
  // Ukkonen tree and the ESA enumeration describe the same tree.
  for (u64 seed : {1ULL, 2ULL, 3ULL}) {
    Text text = testing::RandomText(150, 3, seed);
    text.push_back(200);  // Unique sentinel symbol.
    const SuffixTree tree(text);
    auto tree_nodes = tree.CollectNodeSummaries(text);

    const std::vector<index_t> sa = BuildSuffixArray(text);
    const std::vector<index_t> lcp = BuildLcpArray(text, sa);
    const auto esa_nodes = CollectSuffixTreeNodes(
        lcp, DenseSuffixLengthView{sa, static_cast<index_t>(text.size())});
    std::vector<SuffixTree::NodeSummary> esa_summaries;
    for (const SuffixTreeNode& node : esa_nodes) {
      esa_summaries.push_back(
          {node.depth, node.parent_depth, node.frequency()});
    }
    std::sort(tree_nodes.begin(), tree_nodes.end());
    std::sort(esa_summaries.begin(), esa_summaries.end());
    ASSERT_EQ(tree_nodes, esa_summaries) << "seed " << seed;
  }
}

TEST(SuffixTree, PendingSuffixAccounting) {
  // "aaaa" keeps all short suffixes implicit; counts must still be exact.
  SuffixTree tree;
  for (int i = 0; i < 6; ++i) {
    const Text prefix(i + 1, 0);
    tree.Extend(prefix);
    for (index_t len = 1; len <= prefix.size(); ++len) {
      const Text pattern(len, 0);
      ASSERT_EQ(tree.CollectOccurrences(prefix, pattern).size(),
                prefix.size() - len + 1);
    }
  }
  EXPECT_GT(tree.PendingSuffixCount(), 0u);
}

TEST(SuffixTree, SizeGrowsLinearly) {
  const Text text = MakeDnaLike(2000, 5).text();
  const SuffixTree tree(text);
  // A suffix tree has at most 2n nodes (plus root).
  EXPECT_LE(tree.NodeCount(), 2 * text.size() + 1);
  EXPECT_GT(tree.SizeInBytes(), 0u);
}

TEST(SuffixTree, RunningByteCountMatchesNodeWalk) {
  Text abab;
  for (int i = 0; i < 1500; ++i) abab.push_back(static_cast<Symbol>(i % 2));
  const std::vector<std::pair<const char*, Text>> texts = {
      {"sigma4", testing::RandomText(3000, 4, 41)},
      {"xml-like", MakeXmlLike(3000, 42).text()},
      {"sigma256", testing::RandomText(3000, 256, 43)},
      {"abab", abab},
  };
  for (const auto& [label, text] : texts) {
    // Appends arrive in bursts of random length; check after every burst.
    Rng rng(std::hash<std::string>{}(label));
    SuffixTree tree;
    std::size_t size = 0;
    while (size < text.size()) {
      const std::size_t burst = std::min<std::size_t>(
          text.size() - size, 1 + rng.UniformBelow(97));
      for (std::size_t i = 0; i < burst; ++i) {
        tree.Extend(std::span<const Symbol>(text).first(++size));
      }
      ASSERT_EQ(tree.SizeInBytes(), SuffixTreeInspector::WalkedBytes(tree))
          << label << " after " << size << " symbols";
    }
  }
}

TEST(SuffixTree, EmptyPatternCountsPositions) {
  const Text text = testing::T("abcd");
  const SuffixTree tree(text);
  EXPECT_EQ(tree.CollectOccurrences(text, {}).size(), 4u);
}

}  // namespace
}  // namespace usi
