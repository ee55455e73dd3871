// Serialization failure modes of the v3 image, through both ways of opening
// it: the heap read (LoadFromFile, every payload checksummed) and the mapped
// open (OpenMapped, header + directory + learned entry only). Both must
// return nullptr — never crash, never return a half-initialized index — on
// truncated or extended files, corrupted headers and section directories,
// corrupt payloads (the heap read; the shallow mapped open never reads
// them), and a weighted string whose length does not match the
// saved index. The crash-injection suite at the bottom SIGKILLs real saves
// mid-flight and requires the atomic publish protocol to keep the published
// path loadable.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "test_helpers.hpp"
#include "usi/core/index_format.hpp"
#include "usi/core/usi_index.hpp"
#include "usi/util/binary_io.hpp"
#include "usi/util/mapped_file.hpp"

namespace usi {
namespace {

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Fixture: one saved image plus its raw bytes, shared by every failure
/// case.
class SerializationFailureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ws_ = testing::RandomWeighted(300, 4, 77);
    UsiOptions options;
    options.k = 30;
    index_ = std::make_unique<UsiIndex>(ws_, options);
    path_ = ::testing::TempDir() + "usi_serialization_good.bin";
    mutated_path_ = ::testing::TempDir() + "usi_serialization_bad.bin";
    ASSERT_TRUE(index_->SaveToFile(path_));
    bytes_ = ReadAll(path_);
    ASSERT_GT(bytes_.size(), sizeof(format_v3::FileHeader));
    std::memcpy(&header_, bytes_.data(), sizeof(header_));
    std::memcpy(&ext_, bytes_.data() + sizeof(header_), sizeof(ext_));
    ASSERT_EQ(ext_.ext_magic, format_v3::kLearnedMagic);
  }

  void TearDown() override {
    std::remove(path_.c_str());
    std::remove(mutated_path_.c_str());
  }

  /// Re-seals a mutated header so field-validation paths BEHIND the
  /// checksum can be exercised individually.
  static void ResealHeaderChecksum(std::vector<char>* bytes) {
    const std::size_t checksum_offset =
        offsetof(format_v3::FileHeader, header_checksum);
    const u64 checksum = Checksum64(bytes->data(), checksum_offset);
    std::memcpy(bytes->data() + checksum_offset, &checksum, sizeof(checksum));
  }

  /// Writes \p header over a copy of the image, re-seals it, and stores the
  /// result at mutated_path_.
  void WriteResealed(const format_v3::FileHeader& header) {
    std::vector<char> mutated = bytes_;
    std::memcpy(mutated.data(), &header, sizeof(header));
    ResealHeaderChecksum(&mutated);
    WriteAll(mutated_path_, mutated);
  }

  /// The heap read's typed verdict on mutated_path_.
  LoadErrorCode HeapReadError() const {
    LoadError error;
    const std::unique_ptr<UsiIndex> loaded =
        UsiIndex::LoadFromFile(ws_, mutated_path_, &error);
    EXPECT_EQ(loaded == nullptr, error.code != LoadErrorCode::kOk);
    return error.code;
  }

  /// Payload extents: the four core sections, then the learned section.
  std::vector<std::pair<u64, u64>> Payloads() const {
    std::vector<std::pair<u64, u64>> payloads;
    for (const format_v3::SectionEntry& section : header_.sections) {
      payloads.emplace_back(section.offset, section.length);
    }
    payloads.emplace_back(ext_.offset, ext_.length);
    return payloads;
  }

  WeightedString ws_;
  std::unique_ptr<UsiIndex> index_;
  std::string path_;
  std::string mutated_path_;
  std::vector<char> bytes_;
  format_v3::FileHeader header_;
  format_v3::LearnedSectionEntry ext_;
};

TEST_F(SerializationFailureTest, IntactFileOpensBothWays) {
  std::unique_ptr<UsiIndex> mapped = UsiIndex::OpenMapped(ws_, path_);
  ASSERT_NE(mapped, nullptr);
  EXPECT_TRUE(mapped->IsMapped());
  LoadError error;
  std::unique_ptr<UsiIndex> heap = UsiIndex::LoadFromFile(ws_, path_, &error);
  ASSERT_NE(heap, nullptr);
  EXPECT_EQ(error.code, LoadErrorCode::kOk);
  EXPECT_FALSE(heap->IsMapped());
  for (index_t i = 0; i + 4 <= ws_.size(); i += 7) {
    const Text pattern = ws_.Fragment(i, 4);
    const QueryResult want = index_->Query(pattern);
    EXPECT_EQ(heap->Query(pattern).occurrences, want.occurrences);
    EXPECT_EQ(heap->Query(pattern).utility, want.utility);
    EXPECT_EQ(mapped->Query(pattern).utility, want.utility);
  }
}

TEST_F(SerializationFailureTest, MissingFileReturnsNull) {
  const std::string missing = ::testing::TempDir() + "usi_no_such_index.bin";
  LoadError error;
  EXPECT_EQ(UsiIndex::LoadFromFile(ws_, missing, &error), nullptr);
  EXPECT_EQ(error.code, LoadErrorCode::kNotFound);
  EXPECT_EQ(UsiIndex::OpenMapped(ws_, missing), nullptr);
}

TEST_F(SerializationFailureTest, EveryTruncationReturnsNull) {
  // Every proper prefix must be rejected by both openers: cuts land inside
  // the header, the padding, and every section.
  for (std::size_t cut = 0; cut < bytes_.size(); ++cut) {
    WriteAll(mutated_path_,
             std::vector<char>(bytes_.begin(),
                               bytes_.begin() + static_cast<std::ptrdiff_t>(cut)));
    EXPECT_EQ(UsiIndex::OpenMapped(ws_, mutated_path_), nullptr)
        << "truncation at byte " << cut << " of " << bytes_.size();
    EXPECT_EQ(UsiIndex::LoadFromFile(ws_, mutated_path_), nullptr)
        << "truncation at byte " << cut << " of " << bytes_.size();
  }
}

TEST_F(SerializationFailureTest, TruncationAtSectionBoundaryIsCorrupt) {
  // Exactly on each section boundary every earlier section is complete, so
  // only the size pin can tell: the heap read reports it as corruption.
  for (const auto& [offset, length] : Payloads()) {
    for (const u64 cut : {offset, offset + length}) {
      if (cut >= bytes_.size()) continue;
      WriteAll(mutated_path_,
               std::vector<char>(bytes_.begin(),
                                 bytes_.begin() +
                                     static_cast<std::ptrdiff_t>(cut)));
      EXPECT_EQ(HeapReadError(), LoadErrorCode::kCorrupt)
          << "truncation at section boundary " << cut;
    }
  }
}

TEST_F(SerializationFailureTest, ExtendedFileReturnsNull) {
  // file_bytes pins the exact size: a complete image with bytes appended is
  // not this index's file any more.
  for (const std::size_t extra : {std::size_t{1}, std::size_t{4096}}) {
    std::vector<char> mutated = bytes_;
    mutated.insert(mutated.end(), extra, static_cast<char>(0xCD));
    WriteAll(mutated_path_, mutated);
    EXPECT_EQ(UsiIndex::OpenMapped(ws_, mutated_path_), nullptr)
        << extra << " trailing bytes";
    EXPECT_EQ(HeapReadError(), LoadErrorCode::kCorrupt)
        << extra << " trailing bytes";
  }
}

TEST_F(SerializationFailureTest, EveryHeaderByteFlipReturnsNull) {
  // The header checksum covers every byte before it — magic, scalars, and
  // the whole section directory (offsets, lengths, section checksums). A
  // flip anywhere must reject the file in O(1). Bytes that flip magic or
  // version fail those checks first; everything else falls to the checksum.
  const std::size_t checksum_offset =
      offsetof(format_v3::FileHeader, header_checksum);
  for (std::size_t byte = 0; byte < sizeof(format_v3::FileHeader); ++byte) {
    std::vector<char> mutated = bytes_;
    mutated[byte] = static_cast<char>(mutated[byte] ^ 0x40);
    WriteAll(mutated_path_, mutated);
    EXPECT_EQ(UsiIndex::OpenMapped(ws_, mutated_path_), nullptr)
        << "header byte " << byte
        << (byte >= checksum_offset ? " (checksum field)" : "");
    EXPECT_EQ(UsiIndex::LoadFromFile(ws_, mutated_path_), nullptr)
        << "header byte " << byte;
  }
}

TEST_F(SerializationFailureTest, ForeignMagicIsBadFormat) {
  // Anything that does not start with the v3 magic — including the retired
  // "USI1" stream format — is not an index file.
  for (const u32 magic : {u32{0x55534931}, u32{0x12345678}}) {
    std::vector<char> mutated = bytes_;
    std::memcpy(mutated.data(), &magic, sizeof(magic));
    WriteAll(mutated_path_, mutated);
    EXPECT_EQ(HeapReadError(), LoadErrorCode::kBadFormat)
        << std::hex << "magic 0x" << magic;
  }
}

TEST_F(SerializationFailureTest, ResealedBadFieldsReturnNull) {
  // Field validation must hold even when an attacker (or a very unlucky
  // disk) produces a consistent checksum: the field checks, not the
  // checksum, reject these.
  format_v3::FileHeader bad = header_;
  bad.sections[1].offset += format_v3::kSectionAlign;
  WriteResealed(bad);
  EXPECT_EQ(UsiIndex::OpenMapped(ws_, mutated_path_), nullptr);
  EXPECT_EQ(HeapReadError(), LoadErrorCode::kCorrupt) << "section offset";

  // A section length far beyond the file.
  bad = header_;
  bad.sections[0].length = u64{1} << 38;
  WriteResealed(bad);
  EXPECT_EQ(HeapReadError(), LoadErrorCode::kCorrupt) << "section length";

  // A capacity that is not a power of two must also fail — the table
  // invariants are load checks, not asserts.
  bad = header_;
  bad.table_capacity = header_.table_capacity + 1;
  WriteResealed(bad);
  EXPECT_EQ(UsiIndex::OpenMapped(ws_, mutated_path_), nullptr);
  EXPECT_EQ(HeapReadError(), LoadErrorCode::kCorrupt) << "capacity";

  // Out-of-range utility kind and miner bytes must be rejected at load, not
  // carried into query dispatch (U(P) = 0) or Name().
  for (const u8 kind : {u8{4}, u8{0xFF}}) {
    bad = header_;
    bad.kind = kind;
    WriteResealed(bad);
    EXPECT_EQ(HeapReadError(), LoadErrorCode::kCorrupt)
        << "kind " << static_cast<int>(kind);
  }
  for (const u8 miner : {u8{2}, u8{0xFF}}) {
    bad = header_;
    bad.miner = miner;
    WriteResealed(bad);
    EXPECT_EQ(HeapReadError(), LoadErrorCode::kCorrupt)
        << "miner " << static_cast<int>(miner);
  }

  // The Karp-Rabin base is range-checked on both sides of the valid range
  // (FromBase aborts on out-of-range values).
  for (const u64 base : {u64{0}, ~u64{0}}) {
    bad = header_;
    bad.base = base;
    WriteResealed(bad);
    EXPECT_EQ(HeapReadError(), LoadErrorCode::kCorrupt) << "base " << base;
  }

  // A slot layout from a different build (slot_bytes mismatch) is a host
  // mismatch, not a checksum problem.
  bad = header_;
  bad.slot_bytes = header_.slot_bytes + 8;
  WriteResealed(bad);
  EXPECT_EQ(UsiIndex::OpenMapped(ws_, mutated_path_), nullptr);
  EXPECT_EQ(HeapReadError(), LoadErrorCode::kHostMismatch);
}

TEST_F(SerializationFailureTest, MismatchedWeightedStringReturnsNull) {
  const WeightedString shorter = ws_.Prefix(ws_.size() - 1);
  const WeightedString longer = testing::RandomWeighted(ws_.size() + 1, 4, 7);
  const WeightedString empty;
  for (const WeightedString* other : {&shorter, &longer, &empty}) {
    EXPECT_EQ(UsiIndex::OpenMapped(*other, path_), nullptr);
    LoadError error;
    EXPECT_EQ(UsiIndex::LoadFromFile(*other, path_, &error), nullptr);
    EXPECT_EQ(error.code, LoadErrorCode::kTextMismatch);
  }
}

TEST_F(SerializationFailureTest, FlippedPayloadByteIsCorrupt) {
  // Flip one byte in the middle of each payload, the learned one included.
  // The shallow mapped open accepts it (payloads are not read at open —
  // that is the near-zero-open contract; crash safety comes from atomic
  // publish, not checksums), but the heap read must reject every one.
  for (const auto& [offset, length] : Payloads()) {
    std::vector<char> mutated = bytes_;
    const std::size_t target = offset + length / 2;
    mutated[target] = static_cast<char>(mutated[target] ^ 0x10);
    WriteAll(mutated_path_, mutated);
    EXPECT_NE(UsiIndex::OpenMapped(ws_, mutated_path_), nullptr)
        << "shallow open, payload at " << offset;
    EXPECT_EQ(HeapReadError(), LoadErrorCode::kCorrupt)
        << "heap read, payload at " << offset;
  }
}

TEST_F(SerializationFailureTest, OutOfRangeSaElementIsCorrupt) {
  // An out-of-range SA position whose section checksum has been re-forged
  // is caught by the range scan — the last line of defense before queries
  // would read PSW out of bounds.
  for (const u32 bad_pos : {static_cast<u32>(ws_.size()), 0xFFFFFFF0u}) {
    std::vector<char> mutated = bytes_;
    std::memcpy(mutated.data() + header_.sections[0].offset, &bad_pos,
                sizeof(bad_pos));
    format_v3::FileHeader bad = header_;
    bad.sections[0].checksum =
        Checksum64(mutated.data() + header_.sections[0].offset,
                   header_.sections[0].length);
    std::memcpy(mutated.data(), &bad, sizeof(bad));
    ResealHeaderChecksum(&mutated);
    WriteAll(mutated_path_, mutated);
    EXPECT_EQ(HeapReadError(), LoadErrorCode::kCorrupt) << "sa[0] = " << bad_pos;
  }
}

TEST_F(SerializationFailureTest, SaveToUnwritablePathReturnsFalse) {
  // The staging sibling cannot even be created; the failure must be
  // reported, and no destination file appear.
  const std::string bad = "/nonexistent-usi-dir/index.bin";
  EXPECT_FALSE(index_->SaveToFile(bad));
  EXPECT_EQ(UsiIndex::LoadFromFile(ws_, bad), nullptr);
}

TEST_F(SerializationFailureTest, SaveLeavesNoStagingSibling) {
  // A successful save must fully retire its `path.tmp.<pid>` staging file.
  ASSERT_TRUE(index_->SaveToFile(path_));
  EXPECT_EQ(RemoveStaleTemps(path_), 0);
  EXPECT_EQ(ReadAll(path_), bytes_);
}

TEST_F(SerializationFailureTest, StaleTempRecoverySweep) {
  // A crashed writer leaves only `path.tmp.<pid>` siblings; the published
  // file still loads, and RemoveStaleTemps clears exactly the leftovers.
  const std::string stale1 = path_ + ".tmp.12345";
  const std::string stale2 = path_ + ".tmp.99999";
  WriteAll(stale1, std::vector<char>(100, static_cast<char>(0x00)));
  WriteAll(stale2, std::vector<char>(bytes_.begin(), bytes_.begin() + 20));
  EXPECT_NE(UsiIndex::LoadFromFile(ws_, path_), nullptr);
  EXPECT_EQ(RemoveStaleTemps(path_), 2);
  EXPECT_EQ(RemoveStaleTemps(path_), 0);
  std::ifstream gone1(stale1), gone2(stale2);
  EXPECT_FALSE(gone1.good());
  EXPECT_FALSE(gone2.good());
  // The published file itself is never touched by the sweep.
  EXPECT_NE(UsiIndex::LoadFromFile(ws_, path_), nullptr);
}

TEST_F(SerializationFailureTest, WriterCloseReportsEnospc) {
  // stdio buffers writes, so an out-of-space condition commonly surfaces
  // only at the final flush — exactly what Close() exists to observe.
  // /dev/full fails every flush with ENOSPC; skip where it is absent.
  if (!std::ofstream("/dev/full").good()) {
    GTEST_SKIP() << "/dev/full not available";
  }
  BinaryWriter writer("/dev/full");
  ASSERT_TRUE(writer.ok());
  const std::vector<char> payload(256, 'x');
  writer.WriteRaw(payload.data(), payload.size());
  EXPECT_FALSE(writer.Close());
  EXPECT_FALSE(writer.ok());
}

/// Crash injection: SIGKILL a child process mid-save, at shifting points of
/// the write/publish window, and require the published path to always hold
/// a loadable image — the atomic-publish invariant, end to end.
TEST(CrashInjectionTest, KilledSaveNeverCorruptsPublishedFile) {
  const WeightedString ws = testing::RandomWeighted(2000, 4, 13);
  UsiOptions options;
  options.k = 100;
  const UsiIndex index(ws, options);
  const std::string path = ::testing::TempDir() + "usi_crash_injection.bin";
  std::remove(path.c_str());

  // Establish a good generation first: every post-crash check below then
  // asserts the strong form of the invariant (the path always loads, not
  // merely "absent or loads").
  ASSERT_TRUE(index.SaveToFile(path));
  ASSERT_NE(UsiIndex::LoadFromFile(ws, path), nullptr);

  // Kill points sweep the save duration: early kills land mid-staging,
  // late ones straddle fsync/rename. The child re-saves in a tight loop so
  // any sleep lands inside SOME save, whatever this machine's speed.
  for (int round = 0; round < 10; ++round) {
    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      for (;;) {
        index.SaveToFile(path);  // Loops until killed.
      }
    }
    ::usleep(static_cast<useconds_t>(200 + round * 700));
    ASSERT_EQ(::kill(child, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status));

    // The heap read checksums every section, so a torn image cannot pass.
    const std::unique_ptr<UsiIndex> survivor = UsiIndex::LoadFromFile(ws, path);
    ASSERT_NE(survivor, nullptr) << "corrupt image after kill round " << round;
    const Text pattern = ws.Fragment(7, 5);
    EXPECT_EQ(survivor->Query(pattern).occurrences,
              index.Query(pattern).occurrences);
    // A killed child may leave its own staging sibling; that is the
    // documented crash residue, swept at startup, never the published file.
    RemoveStaleTemps(path);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace usi
