// Deterministic mutation test of the v3 image. Seeded mutants of a valid
// image: single-byte flips over the header (each also resealed, so the
// field checks behind the checksum are reached), over the learned entry
// (likewise resealed) and over every payload; truncations; splices of two
// valid images; and the header fields the table payload pins (table_size,
// num_lengths, k), each forged and resealed. For every mutant:
//  * the shallow UsiIndex::ValidateImage and OpenMapped return one code;
//  * the verifying ValidateImage and LoadFromFile return one code;
//  * a shallow refusal carries its code into the verifying pass, and a
//    verified image passes the shallow checks;
//  * nothing trips ASan or UBSan (the sanitizer job runs this suite).
// Damage confined to the learned payload must never change an answer: the
// learned model is an accelerator. A mapped open that accepts such a
// mutant — and a heap read once the payload checksum is re-forged — must
// answer the probe set exactly like the intact index.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "test_helpers.hpp"
#include "usi/core/index_format.hpp"
#include "usi/core/usi_index.hpp"
#include "usi/util/mapped_file.hpp"
#include "usi/util/rng.hpp"

namespace usi {
namespace {

using format_v3::FileHeader;
using format_v3::LearnedSectionEntry;

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Recomputes header_checksum over a (mutated) header.
void ResealHeader(std::vector<char>* bytes) {
  const std::size_t at = offsetof(FileHeader, header_checksum);
  const u64 checksum = Checksum64(bytes->data(), at);
  std::memcpy(bytes->data() + at, &checksum, sizeof(checksum));
}

/// Recomputes entry_checksum over a (mutated) learned entry.
void ResealEntry(std::vector<char>* bytes) {
  const std::size_t entry = sizeof(FileHeader);
  const std::size_t at = entry + offsetof(LearnedSectionEntry, entry_checksum);
  const u64 checksum = Checksum64(bytes->data() + entry, at - entry);
  std::memcpy(bytes->data() + at, &checksum, sizeof(checksum));
}

/// Every verdict on one mutant.
struct Verdicts {
  LoadErrorCode shallow = LoadErrorCode::kOk;   ///< ValidateImage, O(1).
  LoadErrorCode mapped = LoadErrorCode::kOk;    ///< OpenMapped.
  LoadErrorCode verified = LoadErrorCode::kOk;  ///< ValidateImage, payloads.
  LoadErrorCode heap = LoadErrorCode::kOk;      ///< LoadFromFile.
};

class FormatMutationTest : public ::testing::Test {
 protected:
  static constexpr index_t kN = 4000;

  void SetUp() override {
    ws_ = testing::RandomWeighted(kN, 4, 2024);
    UsiOptions options;
    options.k = 40;
    index_ = std::make_unique<UsiIndex>(ws_, options);
    path_ = ::testing::TempDir() + "usi_format_mutant.bin";
    const std::string other_path =
        ::testing::TempDir() + "usi_format_other.bin";
    ASSERT_TRUE(index_->SaveToFile(path_));
    const WeightedString other_ws = testing::RandomWeighted(kN, 4, 4048);
    ASSERT_TRUE(UsiIndex(other_ws, options).SaveToFile(other_path));
    bytes_ = ReadAll(path_);
    other_bytes_ = ReadAll(other_path);
    std::remove(other_path.c_str());
    std::memcpy(&header_, bytes_.data(), sizeof(header_));
    std::memcpy(&ext_, bytes_.data() + sizeof(header_), sizeof(ext_));
    ASSERT_EQ(ext_.ext_magic, format_v3::kLearnedMagic);

    // Probes: text fragments of lengths 1..48 (past the 32-symbol packed
    // key of a 4-letter alphabet), and random patterns over a 6-letter
    // alphabet — mostly misses, some with symbols the text never uses.
    Rng rng(7);
    for (int i = 0; i < 160; ++i) {
      const index_t len = 1 + static_cast<index_t>(rng.UniformBelow(48));
      const index_t pos =
          static_cast<index_t>(rng.UniformBelow(kN - len + 1));
      probes_.push_back(ws_.Fragment(pos, len));
    }
    for (int i = 0; i < 80; ++i) {
      Text pattern(1 + rng.UniformBelow(12));
      for (Symbol& c : pattern) c = static_cast<Symbol>(rng.UniformBelow(6));
      probes_.push_back(pattern);
    }
    for (const Text& probe : probes_) want_.push_back(index_->Query(probe));
  }

  void TearDown() override { std::remove(path_.c_str()); }

  /// Writes \p bytes to path_ and opens it every way. The indexes each
  /// open returned land in \p mapped / \p heap when non-null; they must be
  /// released before the next Judge rewrites the file under a mapping.
  Verdicts Judge(const std::vector<char>& bytes,
                 std::unique_ptr<UsiIndex>* mapped = nullptr,
                 std::unique_ptr<UsiIndex>* heap = nullptr) {
    WriteAll(path_, bytes);
    Verdicts v;
    LoadError error;
    std::unique_ptr<UsiIndex> opened =
        UsiIndex::OpenMapped(ws_, path_, &error);
    EXPECT_EQ(opened == nullptr, error.code != LoadErrorCode::kOk);
    v.mapped = error.code;
    if (mapped != nullptr) *mapped = std::move(opened);
    opened = UsiIndex::LoadFromFile(ws_, path_, &error);
    EXPECT_EQ(opened == nullptr, error.code != LoadErrorCode::kOk);
    v.heap = error.code;
    if (heap != nullptr) *heap = std::move(opened);
    // The validator reads the same 64-aligned heap copy LoadFromFile does.
    const std::unique_ptr<MappedFile> image =
        MappedFile::ReadIntoMemory(path_);
    EXPECT_NE(image, nullptr);
    if (image == nullptr) return v;
    const std::span<const u8> span(image->data(), image->size());
    v.shallow = UsiIndex::ValidateImage(span, &ws_, false, nullptr).code;
    v.verified = UsiIndex::ValidateImage(span, &ws_, true, nullptr).code;
    return v;
  }

  /// The agreement every mutant must show; \p what names it on failure.
  static void ExpectAgreement(const Verdicts& v, const std::string& what) {
    EXPECT_EQ(v.shallow, v.mapped) << what;
    EXPECT_EQ(v.verified, v.heap) << what;
    if (v.shallow != LoadErrorCode::kOk) {
      EXPECT_EQ(v.verified, v.shallow) << what;
    }
    if (v.verified == LoadErrorCode::kOk) {
      EXPECT_EQ(v.shallow, v.verified) << what;
    }
  }

  /// Judges \p bytes and checks agreement; returns the verdicts.
  Verdicts Check(const std::vector<char>& bytes, const std::string& what) {
    const Verdicts v = Judge(bytes);
    ExpectAgreement(v, what);
    return v;
  }

  /// \p index answers every probe exactly like the intact index, through
  /// per-pattern Query and through one QueryBatch (the batched learned
  /// search).
  void ExpectIntactAnswers(const UsiIndex& index, const std::string& what) {
    std::vector<PatternSpan> spans(probes_.begin(), probes_.end());
    std::vector<QueryResult> batch(probes_.size());
    index.QueryBatch(spans, batch, nullptr);
    for (std::size_t i = 0; i < probes_.size(); ++i) {
      const QueryResult one = index.Query(probes_[i]);
      ASSERT_EQ(one.occurrences, want_[i].occurrences)
          << what << " probe " << i;
      ASSERT_EQ(one.utility, want_[i].utility) << what << " probe " << i;
      ASSERT_EQ(batch[i].occurrences, want_[i].occurrences)
          << what << " batched probe " << i;
      ASSERT_EQ(batch[i].utility, want_[i].utility)
          << what << " batched probe " << i;
    }
  }

  /// The intact image with its header edited by \p edit and resealed.
  template <typename Edit>
  std::vector<char> ForgeHeader(Edit edit) const {
    FileHeader header = header_;
    edit(header);
    std::vector<char> forged = bytes_;
    std::memcpy(forged.data(), &header, sizeof(header));
    ResealHeader(&forged);
    return forged;
  }

  /// A resealed header field that only the payloads can contradict: the
  /// O(1) shallow checks pass it, the verifying pass refuses it.
  void ExpectOnlyVerifyRefuses(const std::vector<char>& forged,
                               const std::string& what) {
    const Verdicts v = Check(forged, what);
    EXPECT_EQ(v.shallow, LoadErrorCode::kOk) << what;
    EXPECT_EQ(v.verified, LoadErrorCode::kCorrupt) << what;
  }

  /// A flip of \p bytes at \p at by a seeded nonzero mask.
  static std::vector<char> Flip(const std::vector<char>& bytes, std::size_t at,
                                Rng& rng) {
    std::vector<char> mutated = bytes;
    mutated[at] = static_cast<char>(mutated[at] ^ (1 + rng.UniformBelow(255)));
    return mutated;
  }

  /// Judges a mutant whose damage lies only in the learned payload: the
  /// mapped open, when it accepts, answers like the intact index. Then the
  /// same mutant with its payload checksum re-forged: the heap read, when
  /// it accepts, must answer like the intact index too. Returns whether the
  /// mapped open served the damaged model.
  bool CheckLearnedDamage(std::vector<char> mutated, const std::string& what) {
    std::unique_ptr<UsiIndex> mapped;
    std::unique_ptr<UsiIndex> heap;
    Verdicts v = Judge(mutated, &mapped);
    ExpectAgreement(v, what);
    EXPECT_EQ(v.heap, LoadErrorCode::kCorrupt) << what;
    const bool served = mapped != nullptr;
    if (served) ExpectIntactAnswers(*mapped, what + " (mapped)");
    mapped.reset();

    const u64 checksum =
        Checksum64(mutated.data() + ext_.offset, ext_.length);
    std::memcpy(mutated.data() + sizeof(FileHeader) +
                    offsetof(LearnedSectionEntry, checksum),
                &checksum, sizeof(checksum));
    ResealEntry(&mutated);
    v = Judge(mutated, &mapped, &heap);
    ExpectAgreement(v, what + " forged");
    EXPECT_EQ(v.shallow, v.verified) << what << " forged";
    if (mapped != nullptr) {
      ExpectIntactAnswers(*mapped, what + " forged (mapped)");
    }
    if (heap != nullptr) ExpectIntactAnswers(*heap, what + " forged (heap)");
    return served;
  }

  WeightedString ws_;
  std::unique_ptr<UsiIndex> index_;
  std::string path_;
  std::vector<char> bytes_;
  std::vector<char> other_bytes_;
  FileHeader header_;
  LearnedSectionEntry ext_;
  std::vector<Text> probes_;
  std::vector<QueryResult> want_;
};

TEST_F(FormatMutationTest, IntactImageOpensEveryWay) {
  std::unique_ptr<UsiIndex> mapped;
  std::unique_ptr<UsiIndex> heap;
  const Verdicts v = Judge(bytes_, &mapped, &heap);
  EXPECT_EQ(v.shallow, LoadErrorCode::kOk);
  EXPECT_EQ(v.verified, LoadErrorCode::kOk);
  ASSERT_NE(mapped, nullptr);
  ASSERT_NE(heap, nullptr);
  EXPECT_FALSE(mapped->learned_sa().empty());
  ExpectIntactAnswers(*mapped, "intact mapped");
  ExpectIntactAnswers(*heap, "intact heap");
}

TEST_F(FormatMutationTest, HeaderFlips) {
  // Every header byte flipped as-is (the checksum or magic/version catches
  // it) and, before the checksum field, flipped and resealed so the field
  // checks behind the checksum decide.
  Rng rng(101);
  const std::size_t sealed = offsetof(FileHeader, header_checksum);
  for (std::size_t at = 0; at < sizeof(FileHeader); ++at) {
    const std::vector<char> flipped = Flip(bytes_, at, rng);
    const Verdicts v = Check(flipped, "header byte " + std::to_string(at));
    EXPECT_NE(v.shallow, LoadErrorCode::kOk) << "header byte " << at;
    if (at >= sealed) continue;
    std::vector<char> resealed = flipped;
    ResealHeader(&resealed);
    Check(resealed, "resealed header byte " + std::to_string(at));
  }
}

TEST_F(FormatMutationTest, LearnedEntryFlips) {
  Rng rng(202);
  const std::size_t sealed = offsetof(LearnedSectionEntry, entry_checksum);
  for (std::size_t i = 0; i < sizeof(LearnedSectionEntry); ++i) {
    const std::size_t at = sizeof(FileHeader) + i;
    const std::vector<char> flipped = Flip(bytes_, at, rng);
    const Verdicts v = Check(flipped, "entry byte " + std::to_string(i));
    EXPECT_EQ(v.shallow, LoadErrorCode::kCorrupt) << "entry byte " << i;
    if (i >= sealed) continue;
    std::vector<char> resealed = flipped;
    ResealEntry(&resealed);
    Check(resealed, "resealed entry byte " + std::to_string(i));
  }
}

TEST_F(FormatMutationTest, CorePayloadFlips) {
  // The shallow open never reads a payload; the heap read refuses every
  // flip. Answers of a shallow-opened mutant are not checked: a flipped SA
  // entry is exactly what the heap read's range scan exists to catch.
  Rng rng(303);
  for (const format_v3::SectionEntry& section : header_.sections) {
    for (int i = 0; i < 48; ++i) {
      const std::size_t at = section.offset + rng.UniformBelow(section.length);
      const Verdicts v = Check(Flip(bytes_, at, rng),
                               "section " + std::to_string(section.id) +
                                   " byte " + std::to_string(at));
      EXPECT_EQ(v.shallow, LoadErrorCode::kOk) << at;
      EXPECT_EQ(v.verified, LoadErrorCode::kCorrupt) << at;
    }
  }
}

// The three header fields the verifying pass cross-checks against the
// table payload, one case each (tau_k is not among them: confirming it
// costs O(occ)).
TEST_F(FormatMutationTest, TableSizeDisagreeingWithCtrlBytes) {
  ASSERT_LT((header_.table_size + 1) * 8, header_.table_capacity * 7);
  ExpectOnlyVerifyRefuses(
      ForgeHeader([](FileHeader& h) { h.table_size += 1; }), "table_size+1");
  ExpectOnlyVerifyRefuses(
      ForgeHeader([](FileHeader& h) { h.table_size -= 1; }), "table_size-1");
}

TEST_F(FormatMutationTest, NumLengthsDisagreeingWithKeyLengths) {
  ExpectOnlyVerifyRefuses(
      ForgeHeader([](FileHeader& h) { h.num_lengths += 1; }),
      "num_lengths+1");
  ExpectOnlyVerifyRefuses(
      ForgeHeader([](FileHeader& h) { h.num_lengths -= 1; }),
      "num_lengths-1");
}

TEST_F(FormatMutationTest, KBelowTableSize) {
  ExpectOnlyVerifyRefuses(
      ForgeHeader([](FileHeader& h) { h.k = h.table_size - 1; }),
      "k = table_size - 1");
}

TEST_F(FormatMutationTest, LearnedPayloadDamageNeverChangesAnAnswer) {
  // Every byte of the payload's own 64-byte header, then seeded bytes of
  // its radix tables and segments.
  Rng rng(404);
  int served = 0;
  for (std::size_t i = 0; i < 64; ++i) {
    served += CheckLearnedDamage(Flip(bytes_, ext_.offset + i, rng),
                                 "learned header byte " + std::to_string(i));
  }
  // The payload header's key range, shift and key_bits are not recorded
  // anywhere else, so some damaged models must have been served.
  EXPECT_GT(served, 0);
  served = 0;
  for (int i = 0; i < 96; ++i) {
    const std::size_t at =
        ext_.offset + 64 + rng.UniformBelow(ext_.length - 64);
    served += CheckLearnedDamage(Flip(bytes_, at, rng),
                                 "learned body byte " + std::to_string(at));
  }
  // Radix tables and segments are not validated at open: every body flip
  // is served.
  EXPECT_EQ(served, 96);
}

TEST_F(FormatMutationTest, Truncations) {
  // Every section and entry boundary, one byte either side, the header
  // edges, and seeded cuts.
  std::vector<std::size_t> cuts = {0, 1, sizeof(FileHeader) - 1,
                                   sizeof(FileHeader),
                                   format_v3::kFirstSectionOffset - 1};
  for (const format_v3::SectionEntry& section : header_.sections) {
    for (const u64 edge : {section.offset, section.offset + section.length}) {
      cuts.insert(cuts.end(), {edge - 1, edge, edge + 1});
    }
  }
  cuts.insert(cuts.end(), {ext_.offset - 1, ext_.offset, ext_.offset + 1,
                           bytes_.size() - 1});
  Rng rng(505);
  for (int i = 0; i < 48; ++i) cuts.push_back(rng.UniformBelow(bytes_.size()));
  for (const std::size_t cut : cuts) {
    if (cut >= bytes_.size()) continue;
    const std::vector<char> prefix(
        bytes_.begin(), bytes_.begin() + static_cast<std::ptrdiff_t>(cut));
    const Verdicts v = Check(prefix, "truncation at " + std::to_string(cut));
    EXPECT_NE(v.shallow, LoadErrorCode::kOk) << "truncation at " << cut;
  }
}

TEST_F(FormatMutationTest, EmptyFileIsBadFormatEveryWay) {
  // The cut at 0 of Truncations, kept by name: an empty file has nothing to
  // mmap, yet the mapped open must call it bad-format, as the heap read and
  // the validator do, not io-error.
  const Verdicts v = Check({}, "empty file");
  EXPECT_EQ(v.mapped, LoadErrorCode::kBadFormat);
  EXPECT_EQ(v.heap, LoadErrorCode::kBadFormat);
}

TEST_F(FormatMutationTest, Splices) {
  // The head of one valid image over the tail of another (an index of a
  // different text of the same length), both ways round, cut at every
  // section boundary and at seeded offsets.
  std::vector<std::size_t> cuts = {sizeof(FileHeader),
                                   format_v3::kFirstSectionOffset};
  for (const format_v3::SectionEntry& section : header_.sections) {
    cuts.insert(cuts.end(), {section.offset, section.offset + section.length});
  }
  cuts.push_back(ext_.offset);
  Rng rng(606);
  for (int i = 0; i < 32; ++i) cuts.push_back(rng.UniformBelow(bytes_.size()));
  for (const std::size_t cut : cuts) {
    for (const bool ours_first : {true, false}) {
      const std::vector<char>& head = ours_first ? bytes_ : other_bytes_;
      const std::vector<char>& tail = ours_first ? other_bytes_ : bytes_;
      if (cut > head.size() || cut > tail.size()) continue;
      const auto at = static_cast<std::ptrdiff_t>(cut);
      std::vector<char> spliced(head.begin(), head.begin() + at);
      spliced.insert(spliced.end(), tail.begin() + at, tail.end());
      Check(spliced, std::string(ours_first ? "ours|other" : "other|ours") +
                         " at " + std::to_string(cut));
    }
  }
}

}  // namespace
}  // namespace usi
