// Construction hot-path suite: the rewritten cache-conscious SA-IS (level-0
// byte specialization, word-packed type bits, slab-arena recursion), the
// chunked LCP-interval (ESA) traversal
// behind pool-parallel exact mining, the memory-lean staged builder's RSS
// telemetry, and saved-image checksums recorded across versions. Carries
// the "concurrency" CTest label so the TSan CI job covers the
// parallel-mining paths.
//
// SA differential contract: BuildSuffixArray == a naive std::sort comparator
// SA == BuildSuffixArrayReference (the seed's textbook SA-IS) on random,
// periodic, all-equal, and full 256-symbol-alphabet texts — including the
// 0xFF boundary, the symbol value the old Alphabet sentinel once clashed
// with.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "usi/core/usi_index.hpp"
#include "usi/parallel/thread_pool.hpp"
#include "usi/suffix/esa.hpp"
#include "usi/suffix/lcp_array.hpp"
#include "usi/suffix/suffix_array.hpp"
#include "usi/text/generators.hpp"
#include "usi/topk/exact_topk.hpp"
#include "usi/topk/substring_stats.hpp"
#include "usi/util/mapped_file.hpp"
#include "usi/util/memory.hpp"

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

void ExpectAllThreeAgree(const Text& text, const std::string& label) {
  const std::vector<index_t> naive = NaiveSuffixArray(text);
  EXPECT_EQ(BuildSuffixArray(text), naive) << label;
  EXPECT_EQ(BuildSuffixArrayReference(text), naive) << label;
}

TEST(SaDifferential, RandomTexts) {
  struct Case {
    index_t n;
    u32 sigma;
    u64 seed;
  };
  for (const Case& c : {Case{64, 2, 11}, Case{500, 3, 12}, Case{1000, 16, 13},
                        Case{2000, 95, 14}, Case{3000, 256, 15}}) {
    ExpectAllThreeAgree(testing::RandomText(c.n, c.sigma, c.seed),
                        "n=" + std::to_string(c.n) +
                            " sigma=" + std::to_string(c.sigma));
  }
}

TEST(SaDifferential, PeriodicTexts) {
  for (const index_t period : {1u, 2u, 3u, 7u, 64u}) {
    ExpectAllThreeAgree(MakePeriodic(600, period, 0).text(),
                        "period=" + std::to_string(period));
  }
}

TEST(SaDifferential, AllEqualIncludingMaxSymbol) {
  ExpectAllThreeAgree(Text(300, 0), "all-0x00");
  ExpectAllThreeAgree(Text(300, 0xFF), "all-0xFF");
}

TEST(SaDifferential, Full256SymbolAlphabet) {
  // Every byte value present, several times, in random order.
  Text text;
  for (int rep = 0; rep < 4; ++rep) {
    for (int c = 0; c < 256; ++c) text.push_back(static_cast<Symbol>(c));
  }
  Rng rng(0xA1FA);
  for (std::size_t i = text.size(); i-- > 1;) {
    std::swap(text[i], text[rng.UniformBelow(static_cast<u32>(i + 1))]);
  }
  ExpectAllThreeAgree(text, "shuffled 4x256");
  EXPECT_EQ(EffectiveSigma(text), 256u);
}

TEST(SaDifferential, MaxSymbolBoundaries) {
  // 0xFF at the text boundaries and in runs: the positions where a
  // wrapped/widened symbol or a mis-sized bucket array would show first.
  Text trailing = testing::T("ab");
  trailing.push_back(0xFF);
  ExpectAllThreeAgree(trailing, "ends with 0xFF");
  Text leading{0xFF, 0xFF, 0xFF};
  const Text tail = testing::T("ab");
  leading.insert(leading.end(), tail.begin(), tail.end());
  ExpectAllThreeAgree(leading, "starts with 0xFF run");
  Text mixed;
  Rng rng(7);
  for (int i = 0; i < 400; ++i) {
    mixed.push_back(rng.UniformBelow(4) == 0 ? Symbol{0xFF}
                                             : static_cast<Symbol>(
                                                   rng.UniformBelow(3)));
  }
  mixed.push_back(0xFF);
  ExpectAllThreeAgree(mixed, "0xFF-heavy, 0xFF-terminated");
}

TEST(SaDifferential, DeepRecursionFibonacciWord) {
  // Fibonacci words force many SA-IS recursion levels; exercises the slab
  // arena's rewind/reuse discipline.
  Text a = {0};
  Text b = {0, 1};
  while (b.size() < 5000) {
    Text next = b;
    next.insert(next.end(), a.begin(), a.end());
    a = std::move(b);
    b = std::move(next);
  }
  EXPECT_EQ(BuildSuffixArray(b), BuildSuffixArrayReference(b));
}

TEST(SaRewrite, MatchesReferenceOnLargerTexts) {
  // Tens of thousands of symbols: several recursion levels and arena slabs.
  for (const auto& text :
       {testing::RandomText(50'000, 4, 99), MakePeriodic(40'000, 5, 1).text(),
        MakeXmlLike(60'000, 2).text()}) {
    EXPECT_EQ(BuildSuffixArray(text), BuildSuffixArrayReference(text));
  }
}

TEST(EsaChunked, BoundaryStacksMatchDirectReplay) {
  const Text text = testing::RandomText(3000, 3, 21);
  const std::vector<index_t> sa = BuildSuffixArray(text);
  const std::vector<index_t> lcp = BuildLcpArray(text, sa);
  const DenseSuffixLengthView suffix_len{sa,
                                        static_cast<index_t>(text.size())};

  // Snapshots via the pre-pass must equal the stack a full enumeration has
  // entering the same step.
  const std::vector<index_t> boundaries = {1, 2, 700, 1500, 2999};
  const auto snapshots = LcpIntervalStacksAt(lcp, boundaries);
  ASSERT_EQ(snapshots.size(), boundaries.size());
  for (std::size_t b = 0; b < boundaries.size(); ++b) {
    std::vector<LcpStackEntry> stack = {{0, 0}};
    EnumerateSuffixTreeNodeRange(lcp, suffix_len, 1, boundaries[b], stack,
                                 [](const SuffixTreeNode&) {});
    EXPECT_EQ(snapshots[b], stack) << "boundary " << boundaries[b];
  }
}

TEST(EsaChunked, ChunkedEnumerationEqualsSequentialExactly) {
  const Text text = MakeIotLike(4000, 9).text();
  const std::vector<index_t> sa = BuildSuffixArray(text);
  const std::vector<index_t> lcp = BuildLcpArray(text, sa);
  const index_t m = static_cast<index_t>(text.size());
  const DenseSuffixLengthView suffix_len{sa, m};

  const std::vector<SuffixTreeNode> sequential =
      CollectSuffixTreeNodes(lcp, suffix_len);

  for (const index_t chunks : {2u, 3u, 7u, 16u}) {
    const index_t span = (m + chunks - 1) / chunks;
    std::vector<index_t> boundaries;
    for (index_t c = 1; c < chunks && 1 + c * span <= m; ++c) {
      boundaries.push_back(1 + c * span);
    }
    const auto snapshots = LcpIntervalStacksAt(lcp, boundaries);
    std::vector<SuffixTreeNode> chunked;
    for (std::size_t c = 0; c <= boundaries.size(); ++c) {
      const index_t begin = c == 0 ? 1 : boundaries[c - 1];
      const index_t end =
          c == boundaries.size() ? m + 1 : boundaries[c];
      std::vector<LcpStackEntry> stack =
          c == 0 ? std::vector<LcpStackEntry>{{0, 0}} : snapshots[c - 1];
      EnumerateSuffixTreeNodeRange(lcp, suffix_len, begin, end, stack,
                                   [&](const SuffixTreeNode& node) {
                                     chunked.push_back(node);
                                   });
    }
    // Not just the same set: the exact sequential emission order, which is
    // what keeps the radix-sorted T — and the serialized index — identical
    // across thread counts.
    EXPECT_EQ(chunked, sequential) << "chunks=" << chunks;
  }
}

void ExpectSameItems(const TopKList& actual, const TopKList& expected,
                     const std::string& label) {
  ASSERT_EQ(actual.items.size(), expected.items.size()) << label;
  for (std::size_t i = 0; i < expected.items.size(); ++i) {
    EXPECT_EQ(actual.items[i].length, expected.items[i].length) << label << i;
    EXPECT_EQ(actual.items[i].frequency, expected.items[i].frequency)
        << label << i;
    EXPECT_EQ(actual.items[i].witness, expected.items[i].witness)
        << label << i;
    EXPECT_EQ(actual.items[i].lb, expected.items[i].lb) << label << i;
    EXPECT_EQ(actual.items[i].rb, expected.items[i].rb) << label << i;
  }
}

TEST(ParallelMining, StatsTopKMatchesSequentialAboveThreshold) {
  // Above the chunked-traversal threshold (2^14 steps) so the parallel path
  // actually engages.
  const Text text = MakeXmlLike(40'000, 3).text();
  const std::vector<index_t> sa = BuildSuffixArray(text);
  std::vector<index_t> sa_seq = sa;
  const SubstringStats sequential(text, std::move(sa_seq));
  const TopKList expected = sequential.TopK(500);

  for (const unsigned threads : {2u, 4u, 8u}) {
    ThreadPool pool(threads);
    std::vector<index_t> sa_par = sa;
    const SubstringStats parallel(text, std::move(sa_par), &pool);
    EXPECT_EQ(parallel.NodeCount(), sequential.NodeCount());
    ExpectSameItems(parallel.TopK(500), expected,
                    "stats threads=" + std::to_string(threads) + " item ");
  }

  // The build's miner (chunked LCP on the pool, sequential passes),
  // sequential and at every pool width, item for item.
  ExpectSameItems(ExactTopK(text, sa, 500), expected, "miner sequential item ");
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    ExpectSameItems(ExactTopK(text, sa, 500, &pool), expected,
                    "miner threads=" + std::to_string(threads) + " item ");
  }
}

TEST(ParallelMining, SaveToFileByteIdenticalAcrossThreadCounts) {
  // The full-pipeline determinism contract at a size where every pooled
  // build stage engages: the mine stage's chunked Kasai LCP.
  const WeightedString ws = testing::RandomWeighted(40'000, 4, 0x5EED);
  UsiOptions options;
  options.k = 400;
  options.threads = 1;
  const UsiIndex sequential(ws, options);
  const std::string seq_path = TempPath("usi_buildpath_seq.bin");
  ASSERT_TRUE(sequential.SaveToFile(seq_path));
  const std::string seq_bytes = ReadFileBytes(seq_path);
  ASSERT_FALSE(seq_bytes.empty());

  for (const unsigned threads : {2u, 4u, 8u}) {
    UsiOptions parallel_options = options;
    parallel_options.threads = threads;
    const UsiIndex parallel(ws, parallel_options);
    const std::string par_path = TempPath("usi_buildpath_par.bin");
    ASSERT_TRUE(parallel.SaveToFile(par_path));
    EXPECT_EQ(seq_bytes, ReadFileBytes(par_path)) << "threads=" << threads;
  }
}

TEST(GoldenImage, SavedImagesMatchRecordedChecksums) {
  // Byte identity across versions, not only across thread counts: small
  // fixed builds whose saved images must hash to recorded values. The first
  // three were recorded before the mine stage stopped building the full
  // node table; sigma16 (4-bit learned-SA keys, two words per key) before
  // the suffix-key packer went word-at-a-time. A change that alters the
  // image format or any built byte must update these constants on purpose.
  struct Case {
    const char* label;
    WeightedString ws;
    u64 k;
    u64 checksum;
  };
  const Case cases[] = {
      {"sigma4", MakeRandom(6'000, 4, 0x601D), 120, 0x72725665e205f1d8ULL},
      {"xml-like", MakeXmlLike(6'000, 0x601D), 120, 0x1dbbc9b2c30ba2d5ULL},
      {"abab", MakePeriodic(6'000, 2, 0), 120, 0x83c7ad2953ba0317ULL},
      {"sigma16", MakeRandom(6'000, 16, 0x601D), 120, 0x380619f52f046161ULL},
  };
  for (const Case& c : cases) {
    UsiOptions options;
    options.k = c.k;
    options.threads = 1;
    const UsiIndex index(c.ws, options);
    const std::string path = TempPath(std::string("usi_golden_") + c.label);
    ASSERT_TRUE(index.SaveToFile(path)) << c.label;
    const std::string bytes = ReadFileBytes(path);
    std::remove(path.c_str());
    EXPECT_EQ(Checksum64(bytes.data(), bytes.size()), c.checksum) << c.label;
  }
}

TEST(LeanBuild, RssTelemetryIsPopulated) {
  const WeightedString ws = testing::RandomWeighted(20'000, 4, 0xACE);
  UsiOptions options;
  options.k = 200;
  const UsiIndex index(ws, options);
  const UsiBuildInfo& info = index.build_info();
  if (ReadPeakRssBytes() == 0) GTEST_SKIP() << "/proc unavailable";
  EXPECT_GT(info.peak_rss_bytes, 0u);
  // The peak covers at least the index's own resident footprint.
  EXPECT_GE(info.peak_rss_bytes, index.SizeInBytes() / 2);
  // Stage deltas never exceed the final peak.
  EXPECT_LE(info.sa_rss_delta_bytes, info.peak_rss_bytes);
  EXPECT_LE(info.mining_rss_delta_bytes, info.peak_rss_bytes);
  EXPECT_LE(info.table_rss_delta_bytes, info.peak_rss_bytes);
}

}  // namespace
}  // namespace usi
