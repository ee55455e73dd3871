// Differential harness: UsiIndex (both miners, all four global utility
// kinds) cross-checked against an independently-built ExhaustiveQueryEngine
// and the brute-force oracles of test_helpers.hpp over generated texts. One
// sweep exercises the hash-hit path, the SA+PSW fallback path, and the
// save/heap-read round-trip, so any divergence between the fast and slow
// paths — or between a fresh and a restored index — fails here first.
//
// Index answers must EQUAL the engine's, bit for bit: the table stage folds
// each key's occurrences in SA order, exactly as the miss path does. Only
// the brute-force oracle, which sums in text order, is compared within a
// tolerance.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "test_helpers.hpp"
#include "usi/core/index_format.hpp"
#include "usi/core/usi_index.hpp"
#include "usi/core/utility.hpp"
#include "usi/suffix/sa_search.hpp"
#include "usi/suffix/suffix_array.hpp"
#include "usi/text/generators.hpp"

namespace usi {
namespace {

constexpr GlobalUtilityKind kAllKinds[] = {
    GlobalUtilityKind::kSum, GlobalUtilityKind::kMin, GlobalUtilityKind::kMax,
    GlobalUtilityKind::kAvg};

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

/// The distinct key lengths of the table records in a saved v3 image.
std::set<u32> StoredKeyLengths(const std::vector<char>& image) {
  using Table = FingerprintTable<UtilityAccumulator>;
  format_v3::FileHeader header;
  std::memcpy(&header, image.data(), sizeof(header));
  const char* ctrl =
      image.data() + header.sections[format_v3::kTableCtrl].offset;
  const char* slots =
      image.data() + header.sections[format_v3::kTableSlots].offset;
  std::set<u32> lengths;
  for (u64 s = 0; s < header.table_capacity; ++s) {
    if (static_cast<u8>(ctrl[s]) == Table::kEmpty) continue;
    Table::Slot slot;
    std::memcpy(&slot, slots + s * sizeof(slot), sizeof(slot));
    lengths.insert(slot.key.len);
  }
  return lengths;
}

/// (ab)^(n/2) with random weights: every length has exactly two distinct
/// substrings, so about K/2 mined intervals contain each SA rank — the
/// deepest nesting the table sweep sees.
WeightedString PeriodicAb(index_t n, u64 seed) {
  const WeightedString random = testing::RandomWeighted(n, 2, seed);
  Text text(n);
  for (index_t i = 0; i < n; ++i) text[i] = static_cast<Symbol>(i % 2);
  return WeightedString(std::move(text), random.weights());
}

/// One generated input for the sweep.
struct TextCase {
  const char* name;
  WeightedString ws;
};

std::vector<TextCase> SweepTexts() {
  std::vector<TextCase> cases;
  cases.push_back({"dna", MakeDnaLike(500, 101)});
  cases.push_back({"xml", MakeXmlLike(600, 102)});
  cases.push_back({"periodic", MakePeriodic(400, 7, 103)});
  cases.push_back({"random", testing::RandomWeighted(450, 3, 104)});
  cases.push_back({"ab-periodic", PeriodicAb(300, 105)});
  cases.push_back({"sigma256", testing::RandomWeighted(2000, 256, 106)});
  return cases;
}

/// Mixed pattern workload: short fragments (frequent, likely table hits),
/// long fragments (rare, fallback), and random symbol strings (often absent).
std::vector<Text> SweepPatterns(const WeightedString& ws, u64 seed) {
  Rng rng(seed);
  std::vector<Text> patterns;
  for (int trial = 0; trial < 60; ++trial) {
    const index_t len = static_cast<index_t>(rng.UniformInRange(1, 6));
    const index_t start =
        static_cast<index_t>(rng.UniformBelow(ws.size() - len));
    patterns.push_back(ws.Fragment(start, len));
  }
  for (int trial = 0; trial < 30; ++trial) {
    const index_t len = static_cast<index_t>(rng.UniformInRange(9, 24));
    const index_t start =
        static_cast<index_t>(rng.UniformBelow(ws.size() - len));
    patterns.push_back(ws.Fragment(start, len));
  }
  for (int trial = 0; trial < 30; ++trial) {
    Text random(rng.UniformInRange(1, 5));
    for (auto& c : random) c = static_cast<Symbol>(rng.UniformBelow(8));
    patterns.push_back(std::move(random));
  }
  return patterns;
}

/// Runs one (text, miner, kind) configuration through every pattern, checking
/// the index against the reference engine and the brute-force oracle, then
/// repeats the workload on a save/heap-read round-trip of the index, whose
/// own save must reproduce the source image byte for byte.
void RunConfiguration(const TextCase& text_case, UsiMiner miner,
                      GlobalUtilityKind kind) {
  const WeightedString& ws = text_case.ws;
  UsiOptions options;
  options.k = 50;
  options.utility = kind;
  ApproximateTopKOptions approx;
  approx.rounds = 3;
  const std::unique_ptr<UsiIndex> built =
      testing::BuildWithMiner(ws, options, miner, approx);
  ASSERT_NE(built, nullptr);
  const UsiIndex& index = *built;

  // Independent reference: own suffix array, own PSW.
  const std::vector<index_t> reference_sa = BuildSuffixArray(ws.text());
  const PrefixSumWeights reference_psw(ws);
  const ExhaustiveQueryEngine reference(ws.text(), reference_sa, reference_psw,
                                        kind);

  const std::string path = ::testing::TempDir() + "usi_differential.bin";
  ASSERT_TRUE(index.SaveToFile(path));
  EXPECT_EQ(StoredKeyLengths(ReadAll(path)).size(),
            index.build_info().num_lengths)
      << "num_lengths must count the distinct stored key lengths";
  const std::unique_ptr<UsiIndex> restored = UsiIndex::LoadFromFile(ws, path);
  ASSERT_NE(restored, nullptr);
  EXPECT_FALSE(restored->IsMapped());
  const std::string resaved = path + ".again";
  ASSERT_TRUE(restored->SaveToFile(resaved));
  EXPECT_EQ(ReadAll(resaved), ReadAll(path)) << "re-save of the heap read";
  std::remove(resaved.c_str());

  int table_hits = 0;
  int fallbacks = 0;
  const std::vector<Text> patterns =
      SweepPatterns(ws, /*seed=*/0xD1FF ^ static_cast<u64>(kind));
  for (const Text& pattern : patterns) {
    const QueryResult got = index.Query(pattern);
    const QueryResult engine = reference.Compute(pattern);
    const QueryResult brute = testing::BruteUtility(ws, pattern, kind);
    (got.from_hash_table ? table_hits : fallbacks) += 1;

    ASSERT_EQ(got.occurrences, engine.occurrences);
    ASSERT_EQ(got.utility, engine.utility)
        << "index vs engine, pattern length " << pattern.size()
        << (got.from_hash_table ? " (table hit)" : " (miss)");
    ASSERT_EQ(engine.occurrences, brute.occurrences);
    ASSERT_NEAR(engine.utility, brute.utility, 1e-9)
        << "engine vs brute force, pattern length " << pattern.size();

    const QueryResult reloaded = restored->Query(pattern);
    ASSERT_EQ(reloaded.occurrences, got.occurrences);
    ASSERT_EQ(reloaded.utility, got.utility)
        << "restored index diverged, pattern length " << pattern.size();
    ASSERT_EQ(reloaded.from_hash_table, got.from_hash_table)
        << "restored index answered from a different path";
  }
  std::remove(path.c_str());

  // The workload must exercise both answer paths, or the sweep proves less
  // than it claims.
  EXPECT_GT(table_hits, 0) << text_case.name << ": no hash-table hits";
  EXPECT_GT(fallbacks, 0) << text_case.name << ": no SA+PSW fallbacks";
}

TEST(Differential, ExactMinerAllKindsAllTexts) {
  for (const TextCase& text_case : SweepTexts()) {
    for (GlobalUtilityKind kind : kAllKinds) {
      SCOPED_TRACE(std::string(text_case.name) + "/" +
                   GlobalUtilityKindName(kind));
      RunConfiguration(text_case, UsiMiner::kExact, kind);
    }
  }
}

TEST(Differential, ApproximateMinerAllKindsAllTexts) {
  for (const TextCase& text_case : SweepTexts()) {
    for (GlobalUtilityKind kind : kAllKinds) {
      SCOPED_TRACE(std::string(text_case.name) + "/" +
                   GlobalUtilityKindName(kind));
      RunConfiguration(text_case, UsiMiner::kApproximate, kind);
    }
  }
}

// Every substring of a small text, both miners: exhaustive rather than
// sampled, so off-by-one interval bugs in SA search cannot hide.
TEST(Differential, EverySubstringSmallText) {
  const WeightedString ws = testing::RandomWeighted(90, 2, 777);
  const std::vector<index_t> sa = BuildSuffixArray(ws.text());
  const PrefixSumWeights psw(ws);
  const ExhaustiveQueryEngine engine(ws.text(), sa, psw,
                                     GlobalUtilityKind::kSum);
  for (UsiMiner miner : {UsiMiner::kExact, UsiMiner::kApproximate}) {
    UsiOptions options;
    options.k = 30;
    const std::unique_ptr<UsiIndex> built =
        testing::BuildWithMiner(ws, options, miner);
    ASSERT_NE(built, nullptr);
    const UsiIndex& index = *built;
    for (index_t i = 0; i < ws.size(); ++i) {
      for (index_t len = 1; i + len <= ws.size(); ++len) {
        const Text pattern = ws.Fragment(i, len);
        const QueryResult got = index.Query(pattern);
        const QueryResult want =
            testing::BruteUtility(ws, pattern, GlobalUtilityKind::kSum);
        ASSERT_EQ(got.occurrences, want.occurrences)
            << "i=" << i << " len=" << len;
        ASSERT_NEAR(got.utility, want.utility, 1e-9)
            << "i=" << i << " len=" << len;
        ASSERT_EQ(got.utility, engine.Compute(pattern).utility)
            << "i=" << i << " len=" << len;
      }
    }
  }
}

// The table sweep fed the way an approximate miner feeds it: witnesses
// located in the SA, two of them occurrences of the same substring and one
// repeated outright. Duplicates collapse to one item, whose occurrences
// count once, and every sum equals Aggregate over its interval exactly.
TEST(Differential, IntervalSweepDropsDuplicateWitnesses) {
  const WeightedString ws = MakeDnaLike(400, 107);
  const Text& text = ws.text();
  const std::vector<index_t> sa = BuildSuffixArray(text);
  const PrefixSumWeights psw(ws);

  const index_t len = 3;
  const SaInterval first = FindSaInterval(text, sa, ws.Fragment(10, len));
  ASSERT_GE(first.Count(), 2u);
  const index_t other = sa[first.lb] != 10 ? sa[first.lb] : sa[first.rb];
  std::vector<IntervalItem> located;
  std::set<std::pair<index_t, index_t>> distinct;  // (lb, length)
  for (const auto& [start, m] : std::vector<std::pair<index_t, index_t>>{
           {10, len}, {40, 5}, {other, len}, {200, 1}, {40, 5}, {10, 2}}) {
    const SaInterval interval = FindSaInterval(text, sa, ws.Fragment(start, m));
    located.push_back({interval, m, start});
    distinct.insert({interval.lb, m});
  }
  ASSERT_EQ(distinct.size(), 4u);

  for (GlobalUtilityKind kind : kAllKinds) {
    SCOPED_TRACE(GlobalUtilityKindName(kind));
    const ExhaustiveQueryEngine engine(text, sa, psw, kind);
    std::vector<IntervalItem> items = located;
    std::vector<UtilityAccumulator> sums;
    engine.AggregateIntervals(items, sums);
    ASSERT_EQ(items.size(), distinct.size());
    ASSERT_EQ(sums.size(), items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      const QueryResult want =
          engine.Aggregate(items[i].interval, items[i].length);
      EXPECT_EQ(sums[i].count, want.occurrences) << "item " << i;
      EXPECT_EQ(sums[i].Finalize(kind), want.utility) << "item " << i;
    }
  }
}

}  // namespace
}  // namespace usi
