// Tests for SA-IS, prefix doubling, and the LCP array: cross-validation
// against each other and against a naive sort, over random and adversarial
// inputs (TEST_P sweeps).

#include <algorithm>
#include <numeric>

#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "usi/suffix/lcp_array.hpp"
#include "usi/suffix/suffix_array.hpp"
#include "usi/text/generators.hpp"

namespace usi {
namespace {

std::vector<index_t> NaiveSuffixArray(const Text& text) {
  std::vector<index_t> sa(text.size());
  std::iota(sa.begin(), sa.end(), 0);
  std::sort(sa.begin(), sa.end(), [&](index_t a, index_t b) {
    return std::lexicographical_compare(text.begin() + a, text.end(),
                                        text.begin() + b, text.end());
  });
  return sa;
}

index_t NaiveLcpOf(const Text& text, index_t a, index_t b) {
  index_t k = 0;
  while (a + k < text.size() && b + k < text.size() &&
         text[a + k] == text[b + k]) {
    ++k;
  }
  return k;
}

void CheckSuffixArrayIsSorted(const Text& text, const std::vector<index_t>& sa) {
  ASSERT_EQ(sa.size(), text.size());
  std::vector<bool> seen(text.size(), false);
  for (index_t pos : sa) {
    ASSERT_LT(pos, text.size());
    ASSERT_FALSE(seen[pos]) << "duplicate SA entry";
    seen[pos] = true;
  }
  for (std::size_t i = 1; i < sa.size(); ++i) {
    EXPECT_TRUE(std::lexicographical_compare(
        text.begin() + sa[i - 1], text.end(), text.begin() + sa[i], text.end()))
        << "SA not sorted at rank " << i;
  }
}

TEST(SuffixArray, EmptyAndSingle) {
  EXPECT_TRUE(BuildSuffixArray({}).empty());
  const std::vector<index_t> sa = BuildSuffixArray({5});
  ASSERT_EQ(sa.size(), 1u);
  EXPECT_EQ(sa[0], 0u);
}

TEST(SuffixArray, ClassicExamples) {
  // banana: suffixes sorted = a(5), ana(3), anana(1), banana(0), na(4), nana(2).
  const std::vector<index_t> sa = BuildSuffixArray(testing::T("banana"));
  EXPECT_EQ(sa, (std::vector<index_t>{5, 3, 1, 0, 4, 2}));
  const std::vector<index_t> lcp =
      BuildLcpArray(testing::T("banana"), sa);
  EXPECT_EQ(lcp, (std::vector<index_t>{0, 1, 3, 0, 0, 2}));
}

TEST(SuffixArray, MississippiExample) {
  const Text text = testing::T("mississippi");
  const std::vector<index_t> sa = BuildSuffixArray(text);
  EXPECT_EQ(sa, NaiveSuffixArray(text));
}

struct SweepCase {
  index_t n;
  u32 sigma;
  u64 seed;
};

class SuffixArraySweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(SuffixArraySweep, SaIsMatchesNaive) {
  const auto& param = GetParam();
  const Text text = testing::RandomText(param.n, param.sigma, param.seed);
  const std::vector<index_t> sa = BuildSuffixArray(text);
  CheckSuffixArrayIsSorted(text, sa);
  EXPECT_EQ(sa, NaiveSuffixArray(text));
}

TEST_P(SuffixArraySweep, SaIsMatchesDoubling) {
  const auto& param = GetParam();
  const Text text = testing::RandomText(param.n, param.sigma, param.seed ^ 1);
  EXPECT_EQ(BuildSuffixArray(text), BuildSuffixArrayDoubling(text));
}

TEST_P(SuffixArraySweep, LcpMatchesNaive) {
  const auto& param = GetParam();
  const Text text = testing::RandomText(param.n, param.sigma, param.seed ^ 2);
  const std::vector<index_t> sa = BuildSuffixArray(text);
  const std::vector<index_t> lcp = BuildLcpArray(text, sa);
  ASSERT_EQ(lcp.size(), sa.size());
  if (!lcp.empty()) {
    EXPECT_EQ(lcp[0], 0u);
  }
  for (std::size_t i = 1; i < sa.size(); ++i) {
    EXPECT_EQ(lcp[i], NaiveLcpOf(text, sa[i - 1], sa[i])) << "rank " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomTexts, SuffixArraySweep,
    ::testing::Values(SweepCase{1, 2, 1}, SweepCase{2, 2, 2},
                      SweepCase{10, 2, 3}, SweepCase{50, 2, 4},
                      SweepCase{100, 2, 5}, SweepCase{200, 3, 6},
                      SweepCase{500, 4, 7}, SweepCase{500, 16, 8},
                      SweepCase{1000, 2, 9}, SweepCase{1000, 95, 10},
                      SweepCase{2000, 4, 11}, SweepCase{257, 250, 12},
                      // Full byte alphabet, 0xFF included (the compact-code
                      // boundary the SA-IS level-0 buckets must cover).
                      SweepCase{512, 256, 13}, SweepCase{2000, 256, 14}));

TEST(SuffixArray, AdversarialAllEqual) {
  const Text text(200, 1);
  const std::vector<index_t> sa = BuildSuffixArray(text);
  // Suffixes of a unary string sort by decreasing start position... i.e.
  // shortest suffix first: sa[i] = n-1-i.
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i], text.size() - 1 - i);
  }
}

TEST(SuffixArray, AdversarialPeriodic) {
  const Text text = MakePeriodic(300, 2, 0).text();
  EXPECT_EQ(BuildSuffixArray(text), NaiveSuffixArray(text));
  const Text text3 = MakePeriodic(300, 3, 0).text();
  EXPECT_EQ(BuildSuffixArray(text3), NaiveSuffixArray(text3));
}

TEST(SuffixArray, AdversarialFibonacciWord) {
  Text a = {0};
  Text b = {0, 1};
  while (b.size() < 800) {
    Text next = b;
    next.insert(next.end(), a.begin(), a.end());
    a = std::move(b);
    b = std::move(next);
  }
  EXPECT_EQ(BuildSuffixArray(b), NaiveSuffixArray(b));
}

TEST(SuffixArray, RealisticGenerators) {
  for (const auto& text :
       {MakeDnaLike(3000, 1).text(), MakeIotLike(3000, 2).text(),
        MakeXmlLike(3000, 3).text(), MakeAdvLike(3000, 4).text()}) {
    EXPECT_EQ(BuildSuffixArray(text), BuildSuffixArrayDoubling(text));
  }
}

}  // namespace
}  // namespace usi
