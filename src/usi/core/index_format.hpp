#ifndef USI_CORE_INDEX_FORMAT_HPP_
#define USI_CORE_INDEX_FORMAT_HPP_

/// \file index_format.hpp
/// The layout of a UsiIndex image: format v3, a section file whose bytes
/// ARE the in-memory structures. Every index serves from one such image
/// (usi_index.hpp); the three ways of getting one differ only in its
/// backing (util/mapped_file.hpp):
///
///  * UsiBuilder — writes the sections in place into an owned anonymous
///    mapping, then seals it read-only.
///  * OpenMapped — mmap the file; opening is the O(1) checks of
///    UsiIndex::ValidateImage + pointer fixup, the kernel demand-pages the
///    sections and shares them across processes.
///  * LoadFromFile — read the file into an owned anonymous mapping, run the
///    same validator with every payload checksummed, then the same fixup.
///    Costs one sequential O(file) pass; the result cannot fault when the
///    file is truncated later.
///
/// SaveToFile writes the image, computing the header's checksums.
///
/// UsiIndex::ValidateImage is the only statement of the validity rules
/// below; `usi_inspect info` prints its verdict rather than re-checking.
///
/// Same-host format: byte order, index_t width, and FingerprintTable slot
/// layout must match the writer (slot_bytes in the header guards the
/// latter).
///
/// \par v3 file layout
///
///     offset 0    FileHeader (208 bytes, see below), header_checksum last
///     ...         zero padding
///     offset 256  section kSuffixArray   n * sizeof(index_t)  [64-aligned]
///     ...         section kPrefixSums    n * sizeof(double)   [64-aligned]
///     ...         section kTableCtrl     capacity + kGroupWidth bytes
///     ...         section kTableSlots    capacity * slot_bytes
///
/// Sections are 64-byte aligned (cache-line; mmap makes file alignment ==
/// memory alignment). The section directory inside the header records each
/// section's id, offset, length, and content checksum; the directory itself
/// is covered by header_checksum, so a flipped offset or length is rejected
/// in O(1) at open without touching the payload. file_bytes pins the exact
/// file size — truncated or extended files fail before any section is read.
///
/// Every write goes through the atomic publish protocol of
/// util/mapped_file.hpp: stage to `path.tmp.<pid>`, fsync, rename, fsync
/// parent. A crash at any instant leaves `path` absent or a complete image.

#include <cstddef>

#include "usi/util/common.hpp"

namespace usi {

/// The format SaveToFile emits. v3 is the only one; the enum stays so
/// callers that name the format keep compiling.
enum class IndexFileFormat : u8 {
  kV3Mapped,  ///< The v3 section file; same-host only.
};

/// Where the mined top-K list came from: FileHeader::miner. UsiBuilder
/// derives it from the list, not from an option.
enum class UsiMiner : u8 {
  kExact,        ///< UET: every item carried its SA interval (ExactTopK).
  kApproximate,  ///< UAT: some item was a witness only (ApproximateTopK).
};

/// Number of UsiMiner values; ValidateImage refuses any other byte.
inline constexpr u8 kNumUsiMiners = 2;

/// Display name of a miner byte: "UET", "UAT", or "?" for any other byte.
constexpr const char* UsiMinerName(u8 miner) {
  return miner == static_cast<u8>(UsiMiner::kExact)         ? "UET"
         : miner == static_cast<u8>(UsiMiner::kApproximate) ? "UAT"
                                                             : "?";
}

namespace format_v3 {

/// "USI3". Files that start with anything else (including the retired
/// "USI1" stream format) are rejected as kBadFormat.
inline constexpr u32 kMagic = 0x55534933;

inline constexpr u32 kVersion = 3;

/// Section ids, in file order.
enum SectionId : u32 {
  kSuffixArray = 0,  ///< n * sizeof(index_t), the SA in leaf order.
  kPrefixSums = 1,   ///< n * sizeof(double), the PSW array.
  kTableCtrl = 2,    ///< capacity + kGroupWidth control bytes (cloned tail).
  kTableSlots = 3,   ///< capacity * slot_bytes records.
};

inline constexpr std::size_t kNumSections = 4;

/// Alignment of every section payload. One cache line: mmap maps file
/// offset alignment straight to memory alignment, so aligned sections give
/// aligned arrays.
inline constexpr u64 kSectionAlign = 64;

/// File offset of the first section. Leaves room for the header plus slack
/// for forward-compatible header growth within the version.
inline constexpr u64 kFirstSectionOffset = 256;

/// One row of the section directory.
struct SectionEntry {
  u32 id = 0;        ///< SectionId.
  u32 reserved = 0;  ///< Zero.
  u64 offset = 0;    ///< Absolute file offset, kSectionAlign-aligned.
  u64 length = 0;    ///< Payload bytes (exact, no padding).
  u64 checksum = 0;  ///< Checksum64 of the payload bytes.
};
static_assert(sizeof(SectionEntry) == 32);

/// The v3 file header. Fixed layout, written and read raw; header_checksum
/// is a Checksum64 over every byte that precedes it (including the section
/// directory) and MUST remain the last field.
struct FileHeader {
  u32 magic = kMagic;
  u32 version = kVersion;
  u64 file_bytes = 0;  ///< Exact total file size.
  u32 n = 0;           ///< Text length the index was built over.
  u8 kind = 0;         ///< GlobalUtilityKind.
  u8 miner = 0;        ///< UsiMiner, named by UsiMinerName.
  u16 reserved0 = 0;   ///< Zero.
  u64 base = 0;        ///< Karp-Rabin base.
  u64 k = 0;           ///< Effective K.
  u32 tau_k = 0;
  u32 num_lengths = 0;
  u64 table_size = 0;      ///< Occupied hash-table entries.
  u64 table_capacity = 0;  ///< Hash-table slots (power of two).
  u64 slot_bytes = 0;      ///< sizeof one table slot; guards layout drift.
  SectionEntry sections[kNumSections] = {};
  u64 header_checksum = 0;  ///< Checksum64 of all preceding header bytes.
};
static_assert(sizeof(FileHeader) == 208);
static_assert(offsetof(FileHeader, header_checksum) ==
                  sizeof(FileHeader) - sizeof(u64),
              "header_checksum must be the last header field");
static_assert(sizeof(FileHeader) <= kFirstSectionOffset);

/// Rounds \p offset up to the next section boundary.
constexpr u64 AlignUp(u64 offset) {
  return (offset + kSectionAlign - 1) & ~(kSectionAlign - 1);
}

/// "USIL" — marks a populated learned-model extension entry.
inline constexpr u32 kLearnedMagic = 0x5553494C;

/// Optional learned-model extension descriptor, stored in the slack between
/// FileHeader and kFirstSectionOffset (file offset 208..255). Pre-extension
/// writers zero-padded that gap (BinaryWriter::PadTo), so on legacy images
/// ext_magic reads 0 — "no learned section" — and they keep opening
/// unchanged; the extension needs no version bump and no header change.
/// The entry sits OUTSIDE header_checksum's coverage (which must stay the
/// last covered field), so it carries its own entry_checksum; the payload —
/// LearnedSa::payload() appended after the last core section, with
/// file_bytes grown to cover it — is guarded by checksum like any section.
struct LearnedSectionEntry {
  u32 ext_magic = 0;       ///< kLearnedMagic when present, 0 when absent.
  u32 epsilon = 0;         ///< Recorded model error bound ε.
  u64 offset = 0;          ///< Absolute payload offset, kSectionAlign-aligned.
  u64 length = 0;          ///< Payload bytes (exact).
  u64 checksum = 0;        ///< Checksum64 of the payload bytes.
  u64 num_segments = 0;    ///< Model segments (info/inspect convenience).
  u64 entry_checksum = 0;  ///< Checksum64 of all preceding entry bytes.
};
static_assert(sizeof(LearnedSectionEntry) == 48);
static_assert(offsetof(LearnedSectionEntry, entry_checksum) ==
                  sizeof(LearnedSectionEntry) - sizeof(u64),
              "entry_checksum must be the last entry field");
static_assert(sizeof(FileHeader) + sizeof(LearnedSectionEntry) ==
                  kFirstSectionOffset,
              "the extension entry exactly fills the header slack");

}  // namespace format_v3

}  // namespace usi

#endif  // USI_CORE_INDEX_FORMAT_HPP_
