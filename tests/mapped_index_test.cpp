// Index format v3 behavioral equivalence: a mapped index (OpenMapped) and a
// heap-read index (LoadFromFile) of the same image must be
// indistinguishable through the whole QueryEngine contract — same answers
// bit-for-bit, same hash-table hits — and the image must be
// byte-deterministic. Also covers the non-owning
// view mode the mapped path is built on (FingerprintTable) and the
// UsiMultiService instant-start registration.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "test_helpers.hpp"
#include "usi/core/multi_service.hpp"
#include "usi/core/usi_index.hpp"
#include "usi/hash/fingerprint_table.hpp"
#include "usi/util/rng.hpp"

namespace usi {
namespace {

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

/// Fixture: one built index saved once, opened back both ways.
class MappedIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ws_ = testing::RandomWeighted(1500, 4, 2024);
    UsiOptions options;
    options.k = 120;
    built_ = std::make_unique<UsiIndex>(ws_, options);
    v3_path_ = ::testing::TempDir() + "usi_mapped_test_v3.bin";
    ASSERT_TRUE(built_->SaveToFile(v3_path_, IndexFileFormat::kV3Mapped));
    heap_ = UsiIndex::LoadFromFile(ws_, v3_path_);
    v3_ = UsiIndex::OpenMapped(ws_, v3_path_);
    ASSERT_NE(heap_, nullptr);
    ASSERT_NE(v3_, nullptr);
    ASSERT_FALSE(heap_->IsMapped());
    ASSERT_TRUE(v3_->IsMapped());
  }

  void TearDown() override { std::remove(v3_path_.c_str()); }

  /// Differential pattern set: every fragment start/length combination on a
  /// stride (hits and misses, short and long), plus patterns absent from
  /// the text.
  std::vector<Text> DifferentialPatterns() const {
    std::vector<Text> patterns;
    for (index_t i = 0; i + 12 <= ws_.size(); i += 31) {
      for (index_t len : {1, 2, 3, 5, 8, 12}) {
        patterns.push_back(ws_.Fragment(i, len));
      }
    }
    patterns.push_back(testing::T("zzzzz"));  // Symbols outside sigma.
    patterns.push_back(Text{});
    Text too_long(ws_.size() + 1, Symbol{1});
    patterns.push_back(std::move(too_long));
    return patterns;
  }

  static void ExpectIdentical(const QueryResult& a, const QueryResult& b,
                              const char* what) {
    // Byte-identical, not approximately equal: both paths aggregate the
    // same PSW doubles in the same order, so even the floating-point
    // result must match exactly.
    EXPECT_EQ(a.utility, b.utility) << what;
    EXPECT_EQ(a.occurrences, b.occurrences) << what;
    EXPECT_EQ(a.from_hash_table, b.from_hash_table) << what;
  }

  WeightedString ws_;
  std::unique_ptr<UsiIndex> built_;
  std::unique_ptr<UsiIndex> heap_;
  std::unique_ptr<UsiIndex> v3_;
  std::string v3_path_;
};

TEST_F(MappedIndexTest, QueryParityAcrossFormats) {
  for (const Text& pattern : DifferentialPatterns()) {
    const QueryResult from_built = built_->Query(pattern);
    const QueryResult from_heap = heap_->Query(pattern);
    const QueryResult from_v3 = v3_->Query(pattern);
    ExpectIdentical(from_heap, from_v3, "heap vs mapped");
    ExpectIdentical(from_built, from_v3, "built vs mapped");
  }
}

TEST_F(MappedIndexTest, QueryBatchParityAcrossFormats) {
  const std::vector<Text> patterns = DifferentialPatterns();
  std::vector<QueryResult> from_heap(patterns.size());
  std::vector<QueryResult> from_v3(patterns.size());
  const std::vector<PatternSpan> spans = AsPatternSpans(patterns);
  heap_->QueryBatch(spans, std::span<QueryResult>(from_heap), nullptr);
  v3_->QueryBatch(spans, std::span<QueryResult>(from_v3), nullptr);
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    ExpectIdentical(from_heap[i], from_v3[i], "batch heap vs mapped");
  }
}

TEST_F(MappedIndexTest, QueryAllWindowsParityAcrossFormats) {
  const Text document = ws_.Fragment(50, 200);
  constexpr index_t kWindow = 6;
  const std::size_t windows = document.size() - kWindow + 1;
  std::vector<QueryResult> from_heap(windows);
  std::vector<QueryResult> from_v3(windows);
  heap_->QueryAllWindows(document, kWindow, std::span<QueryResult>(from_heap));
  v3_->QueryAllWindows(document, kWindow, std::span<QueryResult>(from_v3));
  for (std::size_t i = 0; i < windows; ++i) {
    ExpectIdentical(from_heap[i], from_v3[i], "windows heap vs mapped");
  }
}

TEST_F(MappedIndexTest, MappedIndexMatchesBruteForce) {
  // Not just backing parity: the mapped path must agree with first
  // principles, so a bug shared by both openers cannot hide.
  for (index_t i = 0; i + 5 <= ws_.size(); i += 97) {
    const Text pattern = ws_.Fragment(i, 5);
    const QueryResult expected =
        testing::BruteUtility(ws_, pattern, GlobalUtilityKind::kSum);
    const QueryResult got = v3_->Query(pattern);
    EXPECT_EQ(got.occurrences, expected.occurrences);
    EXPECT_NEAR(got.utility, expected.utility, 1e-9);
  }
}

TEST_F(MappedIndexTest, StructuralAccessorsAgree) {
  ASSERT_EQ(heap_->sa().size(), v3_->sa().size());
  EXPECT_TRUE(std::equal(heap_->sa().begin(), heap_->sa().end(),
                         v3_->sa().begin()));
  EXPECT_TRUE(std::equal(built_->sa().begin(), built_->sa().end(),
                         heap_->sa().begin()));
  EXPECT_EQ(heap_->HashTableEntries(), v3_->HashTableEntries());
  EXPECT_EQ(std::string(heap_->Name()), std::string(v3_->Name()));
  EXPECT_EQ(heap_->build_info().k, v3_->build_info().k);
  EXPECT_EQ(heap_->build_info().tau_k, v3_->build_info().tau_k);
  EXPECT_EQ(heap_->build_info().num_lengths, v3_->build_info().num_lengths);
  EXPECT_EQ(heap_->learned_sa().epsilon(), built_->learned_sa().epsilon());
  EXPECT_EQ(heap_->learned_sa().num_segments(),
            built_->learned_sa().num_segments());
  // One image, three backings: the built index reports what both reads of
  // its saved bytes report.
  EXPECT_EQ(built_->SizeInBytes(), heap_->SizeInBytes());
  EXPECT_EQ(built_->SizeInBytes(), v3_->SizeInBytes());
  EXPECT_EQ(built_->HashTableEntries(), heap_->HashTableEntries());
  EXPECT_EQ(built_->HashTableEntries(), v3_->HashTableEntries());
}

TEST_F(MappedIndexTest, ReadPastTheSaSectionFailsUnderAsan) {
#if !defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "needs AddressSanitizer";
#endif
  // The SA is a section of the index's image, not a heap vector of its
  // own, so the padding after it is poisoned: ASan reports a read past
  // sa() as it would a read past a vector.
  const index_t n = ws_.size();
  ASSERT_NE(n * sizeof(index_t) % 64, 0u) << "no padding after the SA";
  const index_t* sa = built_->sa().data();
  EXPECT_DEATH(
      {
        const volatile index_t past = sa[n];
        (void)past;
      },
      "use-after-poison");
}

TEST_F(MappedIndexTest, V3BytesAreDeterministic) {
  // The v3 image is a pure function of index content: saving again — from
  // the original, from the heap read, and from the mapped index itself —
  // must reproduce identical bytes.
  const std::vector<char> first = ReadAll(v3_path_);
  const std::string again = ::testing::TempDir() + "usi_mapped_test_v3b.bin";
  ASSERT_TRUE(built_->SaveToFile(again, IndexFileFormat::kV3Mapped));
  EXPECT_EQ(ReadAll(again), first) << "rewrite from built index";
  ASSERT_TRUE(heap_->SaveToFile(again, IndexFileFormat::kV3Mapped));
  EXPECT_EQ(ReadAll(again), first) << "rewrite from heap-read index";
  ASSERT_TRUE(v3_->SaveToFile(again, IndexFileFormat::kV3Mapped));
  EXPECT_EQ(ReadAll(again), first) << "rewrite from mapped index";
  std::remove(again.c_str());
}

TEST(FingerprintTableViewTest, AdoptedViewAnswersLikeTheOwner) {
  using Table = FingerprintTable<UtilityAccumulator>;
  Rng rng(99);
  Table owner(500);
  std::vector<PatternKey> keys;
  for (int i = 0; i < 500; ++i) {
    PatternKey key{rng.Next(), static_cast<u32>(1 + rng.UniformBelow(64))};
    UtilityAccumulator value;
    value.value = static_cast<double>(i) * 0.25;
    value.count = static_cast<index_t>(i + 1);
    owner.FindOrInsert(key, value);
    keys.push_back(key);
  }

  const Table view(owner.ctrl_bytes().data(), owner.slots().data(),
                   owner.capacity(), owner.size());  // Const read surface.
  ASSERT_FALSE(view.OwnsStorage());
  EXPECT_EQ(view.size(), owner.size());
  EXPECT_EQ(view.capacity(), owner.capacity());

  // Every present key answers identically; absent keys miss in both.
  for (const PatternKey& key : keys) {
    const UtilityAccumulator* a = owner.Find(key);
    const UtilityAccumulator* b = view.Find(key);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->value, b->value);
    EXPECT_EQ(a->count, b->count);
  }
  for (int i = 0; i < 200; ++i) {
    const PatternKey absent{rng.Next(), static_cast<u32>(1000 + i)};
    EXPECT_EQ(owner.Find(absent) == nullptr, view.Find(absent) == nullptr);
  }

  // The pipelined batch path reads through the same view pointers.
  std::vector<const UtilityAccumulator*> from_view(keys.size());
  view.VisitBatch(std::span<const PatternKey>(keys),
                  [&](std::size_t i, const UtilityAccumulator* v) {
                    from_view[i] = v;
                  });
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_NE(from_view[i], nullptr);
    EXPECT_EQ(from_view[i]->count, owner.Find(keys[i])->count);
  }

  // Enumeration agrees on the full content.
  std::size_t visited = 0;
  view.ForEach([&](const PatternKey& key, const UtilityAccumulator& value) {
    const UtilityAccumulator* expected = owner.Find(key);
    ASSERT_NE(expected, nullptr);
    EXPECT_EQ(expected->value, value.value);
    ++visited;
  });
  EXPECT_EQ(visited, owner.size());
}

TEST(MultiServiceInstantStartTest, RegisterTextFromFileServesImmediately) {
  const WeightedString original = testing::RandomWeighted(1200, 4, 555);
  UsiOptions options;
  options.k = 80;
  const UsiIndex index(original, options);
  const std::string path =
      ::testing::TempDir() + "usi_instant_start_v3.bin";
  ASSERT_TRUE(index.SaveToFile(path, IndexFileFormat::kV3Mapped));

  UsiMultiServiceOptions service_options;
  service_options.threads = 2;
  UsiMultiService service(service_options);

  // The mapped generation serves as soon as registration returns — no
  // WaitForText needed, that is the instant-start contract.
  WeightedString copy = original;
  EXPECT_EQ(service.RegisterTextFromFile("corpus", std::move(copy), path), 1u);
  EXPECT_TRUE(service.HasText("corpus"));
  for (index_t i = 0; i + 4 <= original.size(); i += 101) {
    const Text pattern = original.Fragment(i, 4);
    QueryResult got;
    ASSERT_EQ(service.Query("corpus", pattern, got), ServeStatus::kOk);
    const QueryResult expected = index.Query(pattern);
    EXPECT_EQ(got.utility, expected.utility);
    EXPECT_EQ(got.occurrences, expected.occurrences);
  }
  const auto stats = service.StatsFor("corpus");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->generation, 1u);
  EXPECT_EQ(stats->builds_completed, 1u);

  // A later rebuild supersedes the mapped generation through the normal
  // generational path.
  WeightedString updated = testing::RandomWeighted(900, 4, 556);
  EXPECT_EQ(service.UpdateText("corpus", std::move(updated)), 2u);
  ASSERT_EQ(service.WaitForText("corpus"), BuildState::kReady);
  EXPECT_EQ(service.StatsFor("corpus")->generation, 2u);
  std::remove(path.c_str());
}

TEST(MultiServiceInstantStartTest, BadFileRegistersNothing) {
  UsiMultiService service(UsiMultiServiceOptions{});
  WeightedString ws = testing::RandomWeighted(100, 3, 9);
  EXPECT_EQ(service.RegisterTextFromFile(
                "ghost", std::move(ws),
                ::testing::TempDir() + "usi_no_such_v3_file.bin"),
            0u);
  EXPECT_FALSE(service.HasText("ghost"));

  // A file that is not a v3 image is refused too, and the failure must
  // leave the registry untouched.
  const std::string junk_path = ::testing::TempDir() + "usi_instant_junk.bin";
  {
    std::ofstream out(junk_path, std::ios::binary);
    out << std::string(512, 'x');
  }
  WeightedString copy = testing::RandomWeighted(300, 3, 10);
  EXPECT_EQ(service.RegisterTextFromFile("corpus", std::move(copy), junk_path),
            0u);
  EXPECT_FALSE(service.HasText("corpus"));
  std::remove(junk_path.c_str());
}

}  // namespace
}  // namespace usi
