// Tests for the Section V data structure: Exact-Top-K (task i) against brute
// force, and the K- and tau-tuning estimates (tasks ii, iii). The build's
// miner (ExactTopK, which keeps only the nodes at or above tau_K) is checked
// item for item against SubstringStats::TopK, the full structure's answer.

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "usi/suffix/suffix_array.hpp"
#include "usi/topk/exact_topk.hpp"
#include "usi/topk/substring_stats.hpp"
#include "usi/text/generators.hpp"

namespace usi {
namespace {

/// Checks the three defining properties of an exact top-K report:
/// (1) reported frequency == true frequency of the reported substring;
/// (2) the multiset of reported frequencies equals the brute-force top-K;
/// (3) SA intervals (when present) have the right width.
void CheckExactTopK(const Text& text, const TopKList& result, u64 k) {
  const auto brute = testing::BruteSubstringFrequencies(text);
  ASSERT_LE(result.items.size(), k);
  const u64 expected_size = std::min<u64>(k, brute.size());
  ASSERT_EQ(result.items.size(), expected_size);

  std::set<std::string> seen;  // Report must not repeat substrings.
  for (const TopKSubstring& item : result.items) {
    const std::string s = testing::MaterializeString(text, item);
    EXPECT_TRUE(seen.insert(s).second) << "duplicate: " << s;
    auto it = brute.find(s);
    ASSERT_NE(it, brute.end());
    EXPECT_EQ(item.frequency, it->second) << s;
    if (item.HasInterval()) {
      EXPECT_EQ(item.rb - item.lb + 1, item.frequency);
    }
  }
  std::vector<index_t> got_freqs;
  for (const TopKSubstring& item : result.items) {
    got_freqs.push_back(item.frequency);
  }
  std::sort(got_freqs.rbegin(), got_freqs.rend());
  EXPECT_EQ(got_freqs, testing::BruteTopKFrequencies(text, k));
}

TEST(ExactTopK, SmallExamples) {
  CheckExactTopK(testing::T("banana"), ExactTopK(testing::T("banana"), 5), 5);
  CheckExactTopK(testing::T("abracadabra"),
                 ExactTopK(testing::T("abracadabra"), 10), 10);
  CheckExactTopK(testing::T("aaaa"), ExactTopK(testing::T("aaaa"), 4), 4);
}

TEST(ExactTopK, TopOneIsMostFrequentLetterOnRandomText) {
  const Text text = testing::RandomText(500, 3, 77);
  const TopKList top1 = ExactTopK(text, 1);
  ASSERT_EQ(top1.items.size(), 1u);
  EXPECT_EQ(top1.items[0].length, 1u);  // Ties break shorter-first.
  index_t best = 0;
  for (u32 c = 0; c < 3; ++c) {
    index_t count = 0;
    for (Symbol s : text) count += (s == c);
    best = std::max(best, count);
  }
  EXPECT_EQ(top1.items[0].frequency, best);
}

class ExactTopKSweep
    : public ::testing::TestWithParam<std::tuple<index_t, u32, u64>> {};

TEST_P(ExactTopKSweep, MatchesBruteForce) {
  const auto [n, sigma, k] = GetParam();
  const Text text = testing::RandomText(n, sigma, n + sigma + k);
  CheckExactTopK(text, ExactTopK(text, k), k);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExactTopKSweep,
    ::testing::Values(std::tuple<index_t, u32, u64>{30, 2, 5},
                      std::tuple<index_t, u32, u64>{60, 2, 20},
                      std::tuple<index_t, u32, u64>{60, 3, 50},
                      std::tuple<index_t, u32, u64>{100, 2, 100},
                      std::tuple<index_t, u32, u64>{100, 4, 10},
                      std::tuple<index_t, u32, u64>{150, 3, 300},
                      std::tuple<index_t, u32, u64>{80, 2, 1'000'000},
                      std::tuple<index_t, u32, u64>{120, 26, 40}));

TEST(ExactTopK, KLargerThanUniverseReturnsAllSubstrings) {
  const Text text = testing::T("abab");
  // Distinct substrings: a, b, ab, ba, aba, bab, abab = 7.
  const TopKList all = ExactTopK(text, 1000);
  EXPECT_EQ(all.items.size(), 7u);
}

/// The build's miner against the full Section V structure, item for item,
/// at one \p k.
void ExpectMinerMatchesStats(const Text& text, const std::vector<index_t>& sa,
                             const SubstringStats& stats, u64 k,
                             const std::string& label) {
  const TopKList expected = stats.TopK(k);
  const TopKList actual = ExactTopK(text, sa, k);
  ASSERT_EQ(actual.items.size(), expected.items.size()) << label << " k=" << k;
  for (std::size_t i = 0; i < expected.items.size(); ++i) {
    const TopKSubstring& a = actual.items[i];
    const TopKSubstring& e = expected.items[i];
    ASSERT_TRUE(a.length == e.length && a.frequency == e.frequency &&
                a.witness == e.witness && a.lb == e.lb && a.rb == e.rb)
        << label << " k=" << k << " item " << i << ": got (" << a.length
        << ", " << a.frequency << ", " << a.witness << ", " << a.lb << ", "
        << a.rb << ") want (" << e.length << ", " << e.frequency << ", "
        << e.witness << ", " << e.lb << ", " << e.rb << ")";
  }
}

TEST(ExactTopK, EqualsStatsTopKAcrossAlphabetsAndK) {
  Text abab;
  for (int i = 0; i < 240; ++i) abab.push_back(static_cast<Symbol>(i % 2));
  const std::vector<std::pair<std::string, Text>> texts = {
      {"sigma2", testing::RandomText(300, 2, 91)},
      {"sigma4", testing::RandomText(300, 4, 92)},
      {"sigma26", testing::RandomText(300, 26, 93)},
      {"sigma256", testing::RandomText(300, 256, 94)},
      {"abab", abab},
      {"unary", Text(200, 7)},
  };
  for (const auto& [label, text] : texts) {
    const std::vector<index_t> sa = BuildSuffixArray(text);
    const SubstringStats stats(text);
    const u64 total = stats.TotalDistinctSubstrings();
    // k = 1 .. 64, every frequency-class boundary and its neighbours (a k
    // one short of a boundary cuts into the tie at tau_K), and past the
    // number of distinct substrings.
    std::set<u64> ks;
    for (u64 k = 1; k <= 64; ++k) ks.insert(k);
    for (const SubstringStats::TradeOffPoint& point : stats.TradeOffCurve()) {
      for (const u64 k : {point.k - 1, point.k, point.k + 1}) {
        if (k >= 1) ks.insert(k);
      }
    }
    for (const u64 k : {total, total + 1, 2 * total + 100}) ks.insert(k);
    for (const u64 k : ks) {
      ExpectMinerMatchesStats(text, sa, stats, k, label);
    }
  }
}

TEST(ExactTopK, TiesAtTauKCutMidClass) {
  // Every length-2 substring of this text occurs exactly twice, so the
  // frequency-2 class is wide and k can stop anywhere inside it.
  const Text text = testing::T("abcdefghabcdefgh");
  const std::vector<index_t> sa = BuildSuffixArray(text);
  const SubstringStats stats(text);
  for (u64 k = 1; k <= stats.TotalDistinctSubstrings(); ++k) {
    const TopKList mined = ExactTopK(text, sa, k);
    ASSERT_EQ(mined.items.size(), k);
    EXPECT_EQ(mined.items.back().frequency, stats.EstimateForK(k).tau)
        << "k=" << k;
    ExpectMinerMatchesStats(text, sa, stats, k, "tied");
  }
}

TEST(SubstringStats, TotalDistinctSubstrings) {
  const Text text = testing::T("mississippi");
  SubstringStats stats(text);
  EXPECT_EQ(stats.TotalDistinctSubstrings(),
            testing::BruteSubstringFrequencies(text).size());
}

TEST(SubstringStats, EstimateForKMatchesTopKOutput) {
  const Text text = MakeAdvLike(2000, 4).text();
  SubstringStats stats(text);
  for (u64 k : {1ULL, 5ULL, 50ULL, 500ULL, 2000ULL}) {
    const auto tuning = stats.EstimateForK(k);
    const TopKList mined = stats.TopK(k);
    ASSERT_FALSE(mined.items.empty());
    index_t min_freq = kInvalidIndex;
    std::set<index_t> lengths;
    for (const TopKSubstring& item : mined.items) {
      min_freq = std::min(min_freq, item.frequency);
      lengths.insert(item.length);
    }
    EXPECT_EQ(tuning.tau, min_freq) << "k=" << k;
    // Emitted lengths are contiguous [1..Lmax] (ancestors precede their
    // descendants in T), and L_K bounds them from above: the last triplet may
    // be partially consumed, leaving some of its covered lengths unemitted.
    EXPECT_EQ(*lengths.rbegin(), lengths.size()) << "k=" << k;
    EXPECT_GE(tuning.num_lengths, lengths.size()) << "k=" << k;
  }
}

TEST(SubstringStats, EstimateForTauCountsTauFrequentSubstrings) {
  const Text text = testing::RandomText(300, 2, 5);
  SubstringStats stats(text);
  const auto brute = testing::BruteSubstringFrequencies(text);
  for (index_t tau : {1u, 2u, 3u, 5u, 10u, 50u}) {
    u64 expected = 0;
    std::set<std::size_t> expected_lengths;
    for (const auto& [s, f] : brute) {
      if (f >= tau) {
        ++expected;
        expected_lengths.insert(s.size());
      }
    }
    const auto tuning = stats.EstimateForTau(tau);
    EXPECT_EQ(tuning.num_substrings, expected) << "tau=" << tau;
    EXPECT_EQ(tuning.num_lengths, expected_lengths.size()) << "tau=" << tau;
  }
}

TEST(SubstringStats, EstimateForTauAboveMaxFrequency) {
  const Text text = testing::T("abc");
  SubstringStats stats(text);
  const auto tuning = stats.EstimateForTau(100);
  EXPECT_EQ(tuning.num_substrings, 0u);
}

TEST(SubstringStats, KAndTauEstimatesAreConsistent) {
  // Round-trip: for the tau reported at K, the number of tau-frequent
  // substrings must be at least K.
  const Text text = MakeDnaLike(3000, 21).text();
  SubstringStats stats(text);
  for (u64 k : {10ULL, 100ULL, 1000ULL}) {
    const auto k_tuning = stats.EstimateForK(k);
    const auto tau_tuning = stats.EstimateForTau(k_tuning.tau);
    EXPECT_GE(tau_tuning.num_substrings, k);
  }
}

TEST(SubstringStats, TopKOrderingIsByDecreasingFrequency) {
  // Frequencies are non-increasing; within a frequency tie the paper breaks
  // ties at the *node* level (shorter nodes first), so per-substring lengths
  // may interleave — only the frequency ordering is contractual.
  const Text text = MakeXmlLike(1500, 6).text();
  const TopKList mined = SubstringStats(text).TopK(200);
  ASSERT_FALSE(mined.items.empty());
  for (std::size_t i = 1; i < mined.items.size(); ++i) {
    EXPECT_GE(mined.items[i - 1].frequency, mined.items[i].frequency)
        << "at " << i;
  }
}

}  // namespace
}  // namespace usi
