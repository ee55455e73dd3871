#include "usi/core/usi_index.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "usi/core/usi_builder.hpp"
#include "usi/util/binary_io.hpp"
#include "usi/util/failpoint.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#include <unistd.h>
#endif

namespace usi {

const char* LoadErrorCodeName(LoadErrorCode code) {
  switch (code) {
    case LoadErrorCode::kOk: return "ok";
    case LoadErrorCode::kNotFound: return "not-found";
    case LoadErrorCode::kIo: return "io-error";
    case LoadErrorCode::kBadFormat: return "bad-format";
    case LoadErrorCode::kCorrupt: return "corrupt";
    case LoadErrorCode::kTextMismatch: return "text-mismatch";
    case LoadErrorCode::kHostMismatch: return "host-mismatch";
  }
  return "?";
}

namespace {

/// Loader failure funnel: records the typed error (when the caller asked
/// for one) and yields the null index every load path returns on refusal.
std::unique_ptr<UsiIndex> LoadFail(LoadError* error, LoadErrorCode code,
                                   std::string message) {
  if (error != nullptr) {
    error->code = code;
    error->message = std::move(message);
  }
  return nullptr;
}

/// QueryBatch uses the table's pipelined VisitBatch only for tables at
/// least this large; smaller tables are cache-resident, where the
/// pipeline's bookkeeping costs more than the misses it hides (~L2 size).
constexpr std::size_t kPipelinedProbeMinTableBytes = std::size_t{2} << 20;

/// QueryBatch resolves table misses through the batched learned search only
/// when a batch collects at least this many; below it the AMAC state
/// machine's setup outweighs the miss overlap it buys.
constexpr std::size_t kBatchedMissMin = 4;

/// Section \p id of a v3 image as an array of T. Section offsets are
/// 64-aligned and images page-aligned, so the cast lands on aligned memory.
template <typename T>
const T* SectionOf(const MappedFile& image, const format_v3::FileHeader& header,
                   format_v3::SectionId id) {
  return reinterpret_cast<const T*>(image.data() + header.sections[id].offset);
}

}  // namespace

UsiIndex::UsiIndex(const WeightedString& ws, const UsiOptions& options,
                   ThreadPool* pool)
    : UsiIndex(ImageTag{}, ws,
               UsiBuilder(ws, options).UsePool(pool).BuildImage(nullptr)) {}

UsiIndex::UsiIndex(ImageTag, const WeightedString& ws, Image image)
    : ws_(&ws),
      kind_(static_cast<GlobalUtilityKind>(image.header.kind)),
      hasher_(KarpRabinHasher::FromBase(image.header.base)),
      // Pointer fixup — the whole "load": every structure views the image.
      sa_span_(SectionOf<index_t>(*image.bytes, image.header,
                                  format_v3::kSuffixArray),
               image.header.n),
      psw_(PrefixSumWeights::FromRaw(
          SectionOf<double>(*image.bytes, image.header,
                            format_v3::kPrefixSums),
          static_cast<index_t>(image.header.n))),
      table_(SectionOf<u8>(*image.bytes, image.header, format_v3::kTableCtrl),
             SectionOf<Table::Slot>(*image.bytes, image.header,
                                    format_v3::kTableSlots),
             image.header.table_capacity, image.header.table_size),
      fallback_(ws.text(), sa_span_, psw_, kind_),
      build_info_(image.build_info),
      image_(std::move(image.bytes)) {
  using namespace format_v3;
  const FileHeader& header = image.header;
  const u8* const base = image_->data();
  build_info_.k = header.k;
  build_info_.tau_k = header.tau_k;
  build_info_.num_lengths = header.num_lengths;
  // The learned payload is served in place — the image outlives the model.
  const LearnedSectionEntry& ext = image.learned;
  if (ext.ext_magic == kLearnedMagic) {
    USI_CHECK(learned_.AdoptView(base + ext.offset, ext.length));
    fallback_.AttachLearned(&learned_);
  }
#if defined(__SANITIZE_ADDRESS__)
  // A read past a section lands in padding or past the image end, all
  // still mapped: poisoned, it fails under ASan as a read past a heap
  // vector would (~MappedFile unpoisons before unmapping). Regions come in
  // image order; the gap before each one is poisoned.
  u64 end = kFirstSectionOffset;
  const auto region = [&](u64 offset, u64 length) {
    if (offset < end) return;  // The absent learned section's {0, 0}.
    ASAN_POISON_MEMORY_REGION(base + end, offset - end);
    end = offset + length;
  };
  for (const SectionEntry& section : header.sections) {
    region(section.offset, section.length);
  }
  region(ext.offset, ext.length);
  const auto page = static_cast<u64>(::sysconf(_SC_PAGESIZE));
  region((header.file_bytes + page - 1) / page * page, 0);  // The page end.
#endif
}

QueryResult UsiIndex::Query(std::span<const Symbol> pattern) const {
  QueryResult result;
  if (pattern.empty() || pattern.size() > ws_->size()) return result;
  const u64 fp = hasher_.Hash(pattern);
  const PatternKey key{fp, static_cast<u32>(pattern.size())};
  const TableValue* value = table_.Find(key);
  if (value != nullptr && value->count > 0) {
    result.utility = value->Finalize(kind_);
    result.occurrences = value->count;
    result.from_hash_table = true;
    return result;
  }
  return fallback_.Compute(pattern);
}

void UsiIndex::QueryBatch(std::span<const PatternSpan> patterns,
                          std::span<QueryResult> results,
                          QueryScratch* scratch) const {
  USI_CHECK(results.size() >= patterns.size());
  QueryScratch local;
  if (scratch == nullptr) scratch = &local;
  const std::size_t batch = patterns.size();
  if (batch == 0) return;

  // Fingerprint stage: one block-Horner hash per pattern.
  std::vector<PatternKey>& keys = scratch->keys;
  keys.resize(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    keys[i] = PatternKey{hasher_.Hash(patterns[i]),
                         static_cast<u32>(patterns[i].size())};
  }

  // Probe stage. The pipelined VisitBatch exists to overlap out-of-cache
  // line and TLB fetches; when H is small enough to live in the fast cache
  // levels its bookkeeping is pure overhead, so cache-resident tables take
  // the plain loop. Hits are answered in place; misses are STAGED
  // (position + borrowed bytes) rather than resolved — the miss path is the
  // expensive one, and deferring it lets the batched learned search overlap
  // the SA probes of all misses.
  std::vector<u32>& misses = scratch->misses;
  std::vector<PatternSpan>& miss_patterns = scratch->miss_patterns;
  misses.clear();
  miss_patterns.clear();
  const auto answer = [&](std::size_t i, const TableValue* value) {
    const PatternSpan pattern = patterns[i];
    QueryResult result;
    if (pattern.empty() || pattern.size() > ws_->size()) {
      results[i] = result;
      return;
    }
    if (value != nullptr && value->count > 0) {
      result.utility = value->Finalize(kind_);
      result.occurrences = value->count;
      result.from_hash_table = true;
      results[i] = result;
      return;
    }
    misses.push_back(static_cast<u32>(i));
    miss_patterns.push_back(pattern);
  };
  if (table_.SizeInBytes() >= kPipelinedProbeMinTableBytes) {
    table_.VisitBatch(std::span<const PatternKey>(keys.data(), batch),
                      answer);
  } else {
    for (std::size_t i = 0; i < batch; ++i) {
      answer(i, table_.Find(keys[i]));
    }
  }

  // Miss stage. With a learned model and enough misses to fill the AMAC
  // pipeline, resolve all SA intervals in one batched pass (probes of
  // independent searches overlap) and aggregate each; otherwise the plain
  // per-miss path. Either way the answers match per-pattern Query exactly.
  //
  // This is the expensive stage (O(m log n + occ) per miss), so the
  // batch's cooperative deadline is checkpointed here: with a BatchControl
  // attached the batched pass runs in chunks, and expiry writes kNone
  // filler into the unreached miss slots and returns early (hits were
  // already answered in place above). Overshoot past the deadline is
  // bounded by one chunk.
  if (misses.empty()) return;
  USI_FAILPOINT("query.fallback");
  const BatchControl* control = scratch->control;
  const auto expire_from = [&](std::size_t j) {
    for (; j < misses.size(); ++j) results[misses[j]] = UnansweredResult();
  };
  if (!learned_.empty() && misses.size() >= kBatchedMissMin) {
    std::vector<SaInterval>& intervals = scratch->miss_intervals;
    intervals.resize(misses.size());
    // Without a deadline the whole miss set goes through one batched pass
    // (maximum probe overlap); with one, chunked so checkpoints exist.
    constexpr std::size_t kDeadlineChunk = 64;
    const std::size_t chunk = (control != nullptr && control->has_deadline)
                                  ? kDeadlineChunk
                                  : misses.size();
    for (std::size_t begin = 0; begin < misses.size(); begin += chunk) {
      if (control != nullptr && control->Expired()) {
        expire_from(begin);
        return;
      }
      const std::size_t end = std::min(misses.size(), begin + chunk);
      learned_.FindIntervalBatch(
          ws_->text(), sa_span_,
          std::span<const PatternSpan>(miss_patterns.data() + begin,
                                       end - begin),
          std::span<SaInterval>(intervals.data() + begin, end - begin));
      for (std::size_t j = begin; j < end; ++j) {
        results[misses[j]] = fallback_.Aggregate(
            intervals[j], static_cast<index_t>(miss_patterns[j].size()));
      }
    }
  } else {
    constexpr std::size_t kDeadlinePollStride = 16;
    for (std::size_t j = 0; j < misses.size(); ++j) {
      if (control != nullptr && j % kDeadlinePollStride == 0 &&
          control->Expired()) {
        expire_from(j);
        return;
      }
      results[misses[j]] = fallback_.Compute(miss_patterns[j]);
    }
  }
}

void UsiIndex::QueryAllWindows(std::span<const Symbol> document,
                               index_t window_len,
                               std::span<QueryResult> results) const {
  if (window_len == 0 || document.size() < window_len) return;
  const std::size_t windows = document.size() - window_len + 1;
  USI_CHECK(results.size() >= windows);
  RollingHasher window(hasher_, window_len);
  for (index_t i = 0; i + 1 < window_len; ++i) window.Push(document[i]);
  for (std::size_t i = 0; i < windows; ++i) {
    if (i == 0) {
      window.Push(document[window_len - 1]);
    } else {
      window.Roll(document[i - 1], document[i + window_len - 1]);
    }
    QueryResult result;
    if (window_len <= ws_->size()) {
      const PatternKey key{window.Fingerprint(), window_len};
      const TableValue* value = table_.Find(key);
      if (value != nullptr && value->count > 0) {
        result.utility = value->Finalize(kind_);
        result.occurrences = value->count;
        result.from_hash_table = true;
      } else {
        result = fallback_.Compute(document.subspan(i, window_len));
      }
    }
    results[i] = result;
  }
}

std::size_t UsiIndex::SizeInBytes() const {
  // The section bytes the views reference, whatever backs the image (for a
  // mapped index, file-backed pages). The fallback engine borrows the
  // SA/PSW, so only its own object footprint is added. No query path grows
  // the hasher's power table, so the figure never depends on the patterns
  // served.
  return sa_span_.size() * sizeof(index_t) + psw_.SizeInBytes() +
         table_.SizeInBytes() + sizeof(fallback_) + learned_.SizeInBytes();
}

const char* UsiIndex::Name() const {
  return UsiMinerName(
      reinterpret_cast<const format_v3::FileHeader*>(image_->data())->miner);
}

UsiIndex::CoreLayout UsiIndex::LayoutCore(u64 n, u64 capacity) {
  using namespace format_v3;
  CoreLayout layout{{}, {n * sizeof(index_t), n * sizeof(double),
                         capacity + Table::kGroupWidth,
                         capacity * sizeof(Table::Slot)},
                    0};
  u64 offset = kFirstSectionOffset;
  for (std::size_t s = 0; s < kNumSections; ++s) {
    layout.offset[s] = offset;
    layout.end = offset + layout.length[s];
    offset = AlignUp(layout.end);
  }
  return layout;
}

bool UsiIndex::SaveToFile(const std::string& path,
                          IndexFileFormat format) const {
  return SaveToFile(path, format, SaveOptions());
}

bool UsiIndex::SaveToFile(const std::string& path, IndexFileFormat /*format*/,
                          const SaveOptions& save_options) const {
  using namespace format_v3;
  // Seal a copy of the image's header: every payload checksum, the learned
  // entry's own, then the header's. The payloads go out as the index serves
  // them — H already in canonical order, the learned section as fitted.
  const u8* const base = image_->data();
  FileHeader header;
  std::memcpy(&header, base, sizeof(header));
  LearnedSectionEntry ext;
  std::memcpy(&ext, base + sizeof(header), sizeof(ext));
  if (!save_options.learned_section && ext.ext_magic != 0) {
    // The absent case writes an all-zero entry — byte-identical to the
    // zero padding every pre-extension writer put there.
    ext = LearnedSectionEntry{};
    const SectionEntry& last = header.sections[kNumSections - 1];
    header.file_bytes = last.offset + last.length;
  }
  for (SectionEntry& section : header.sections) {
    section.checksum = Checksum64(base + section.offset, section.length);
  }
  if (ext.ext_magic != 0) {
    ext.checksum = Checksum64(base + ext.offset, ext.length);
    ext.entry_checksum =
        Checksum64(&ext, offsetof(LearnedSectionEntry, entry_checksum));
  }
  header.header_checksum =
      Checksum64(&header, offsetof(FileHeader, header_checksum));

  // Atomic publish (util/mapped_file.hpp): the destination is replaced only
  // by a complete, flushed image. A crash — or a failed write, flush, or
  // fsync — leaves `path` untouched, holding whatever complete image it had
  // before.
  const std::string staged = StageTempPath(path);
  BinaryWriter writer(staged);
  writer.WriteRaw(&header, sizeof(header));
  writer.WriteRaw(&ext, sizeof(ext));  // Fills the slack at offset 208.
  for (const SectionEntry& section : header.sections) {
    writer.PadTo(section.offset);
    writer.WriteRaw(base + section.offset, section.length);
  }
  if (ext.ext_magic != 0) {
    writer.PadTo(ext.offset);
    writer.WriteRaw(base + ext.offset, ext.length);
  }
  bool body_ok = writer.ok() && writer.bytes_written() == header.file_bytes;
  // Chaos hooks for the two failure classes the publish protocol must
  // contain: a write/flush error while staging (save.body) and a failed
  // rename/fsync at publish time (save.publish). Either way the
  // destination keeps its previous complete image and the staged temp is
  // removed here — exactly the real-failure path.
  if (USI_FAILPOINT_FIRED("save.body")) body_ok = false;
  // Close() before publish: its result covers the final buffer flush, so an
  // out-of-space truncation surfaces here instead of being renamed live.
  if (!(writer.Close() && body_ok) || USI_FAILPOINT_FIRED("save.publish") ||
      !PublishFile(staged, path)) {
    std::remove(staged.c_str());
    return false;
  }
  return true;
}

std::unique_ptr<UsiIndex> UsiIndex::OpenMapped(const WeightedString& ws,
                                               const std::string& path,
                                               LoadError* error) {
  if (USI_FAILPOINT_FIRED("open.mapped")) {
    return LoadFail(error, LoadErrorCode::kIo, "failpoint open.mapped");
  }
  return OpenImage(ws, path, /*mapped=*/true, error);
}

std::unique_ptr<UsiIndex> UsiIndex::LoadFromFile(const WeightedString& ws,
                                                 const std::string& path,
                                                 LoadError* error) {
  if (USI_FAILPOINT_FIRED("load.heap")) {
    return LoadFail(error, LoadErrorCode::kIo, "failpoint load.heap");
  }
  return OpenImage(ws, path, /*mapped=*/false, error);
}

LoadError UsiIndex::ValidateImage(std::span<const u8> image,
                                  const WeightedString* ws,
                                  bool verify_payloads, ValidatedImage* out) {
  using namespace format_v3;
  using Slot = Table::Slot;
  const u8* const base = image.data();
  const std::size_t size = image.size();
  if (size < sizeof(FileHeader)) {
    return {LoadErrorCode::kBadFormat, "file shorter than a v3 header"};
  }
  // Copy the header and the learned entry (header slack) out of the image
  // before validating: one place to reason about alignment, and the checks
  // below read stable memory even if a mapped file is concurrently
  // replaced. Legacy writers zero-padded the slack, so ext_magic == 0
  // cleanly means "no learned section".
  FileHeader header;
  std::memcpy(&header, base, sizeof(header));
  LearnedSectionEntry ext;
  if (size >= kFirstSectionOffset) {
    std::memcpy(&ext, base + sizeof(FileHeader), sizeof(ext));
  }
  if (out != nullptr) {
    out->header = header;
    out->learned = ext;
  }
  if (header.magic != kMagic || header.version != kVersion) {
    return {LoadErrorCode::kBadFormat,
            "not a v3 index file (magic/version mismatch)"};
  }
  // The checksum covers every header byte including the section directory,
  // so a flipped offset/length/checksum in the directory is caught here in
  // O(1) without touching any payload.
  if (header.header_checksum !=
      Checksum64(&header, offsetof(FileHeader, header_checksum))) {
    return {LoadErrorCode::kCorrupt, "header checksum mismatch"};
  }
  // file_bytes pins the exact size: truncated AND extended files both fail
  // (a prefix of a valid file passes every other header check).
  if (header.file_bytes != size) {
    return {LoadErrorCode::kCorrupt,
            "file size differs from header file_bytes (truncated or "
            "extended image)"};
  }
  if (ws != nullptr && header.n != ws->size()) {
    return {LoadErrorCode::kTextMismatch,
            "index was saved over a text of different length"};
  }
  if (header.kind >= kNumGlobalUtilityKinds) {
    return {LoadErrorCode::kCorrupt, "invalid utility kind byte"};
  }
  if (header.miner >= kNumUsiMiners) {
    return {LoadErrorCode::kCorrupt, "invalid miner byte"};
  }
  if (!KarpRabinHasher::IsValidBase(header.base)) {
    return {LoadErrorCode::kCorrupt, "invalid Karp-Rabin base"};
  }
  // Host-layout guard: a slot written with a different value layout (or a
  // different index_t width, checked via the SA section length below) must
  // not be reinterpreted.
  if (header.slot_bytes != sizeof(Slot)) {
    return {LoadErrorCode::kHostMismatch,
            "table slot layout differs from this host"};
  }
  // Same invariants the table's view constructor asserts, but as load
  // failures: a corrupt capacity/size pair must reject the file, not abort
  // the process.
  const u64 capacity = header.table_capacity;
  if (capacity < Table::kMinCapacity || (capacity & (capacity - 1)) != 0 ||
      header.table_size * Table::kMaxLoadDen > capacity * Table::kMaxLoadNum) {
    return {LoadErrorCode::kCorrupt, "invalid table capacity/size pair"};
  }
  const CoreLayout layout = LayoutCore(header.n, capacity);
  for (std::size_t s = 0; s < kNumSections; ++s) {
    const SectionEntry& section = header.sections[s];
    if (section.id != s || section.offset != layout.offset[s] ||
        section.length != layout.length[s] ||
        section.offset + section.length > header.file_bytes) {
      return {LoadErrorCode::kCorrupt, "section directory geometry mismatch"};
    }
  }
  const u64 core_end = layout.end;

  // A nonzero learned entry that fails ANY check rejects the file: a
  // present-but-corrupt extension is corruption like any other, not
  // something to silently serve without.
  const bool learned = ext.ext_magic != 0;
  if (learned) {
    if (ext.ext_magic != kLearnedMagic) {
      return {LoadErrorCode::kCorrupt,
              "unknown extension magic in header slack"};
    }
    if (ext.entry_checksum !=
        Checksum64(&ext, offsetof(LearnedSectionEntry, entry_checksum))) {
      return {LoadErrorCode::kCorrupt,
              "learned extension entry checksum mismatch"};
    }
    if (ext.offset != AlignUp(core_end) || ext.length == 0 ||
        ext.length > header.file_bytes - ext.offset ||
        ext.offset + ext.length != header.file_bytes) {
      return {LoadErrorCode::kCorrupt, "learned extension geometry mismatch"};
    }
  } else if (header.file_bytes != core_end) {
    // No extension, yet bytes past the last core section: a doctored or
    // concatenated file, not slack.
    return {LoadErrorCode::kCorrupt, "trailing bytes after last section"};
  }

  if (verify_payloads) {
    // One sequential pass over the whole image: every section checksum,
    // then SA positions range-checked so a payload flip cannot become an
    // out-of-bounds PSW read at query time. Published files can't be torn
    // (atomic publish), so this guards against storage rot and untrusted
    // transport, not crashes.
    for (std::size_t s = 0; s < kNumSections; ++s) {
      const SectionEntry& section = header.sections[s];
      if (Checksum64(base + section.offset, section.length) !=
          section.checksum) {
        return {LoadErrorCode::kCorrupt, "section payload checksum mismatch"};
      }
    }
    const auto* sa = reinterpret_cast<const index_t*>(
        base + header.sections[kSuffixArray].offset);
    for (u64 i = 0; i < header.n; ++i) {
      if (sa[i] >= header.n) {
        return {LoadErrorCode::kCorrupt, "suffix-array position out of range"};
      }
    }
    if (learned && Checksum64(base + ext.offset, ext.length) != ext.checksum) {
      return {LoadErrorCode::kCorrupt, "learned section checksum mismatch"};
    }
    // Header fields the table payload pins. A mined list holds at most k
    // items (UsiBuilder refuses a longer one) and each stores one key, so
    // table_size <= k; num_lengths counts the distinct lengths among them.
    // tau_k stays unchecked: an approximate miner's tau_k is an estimate,
    // and confirming it means mining the text again, O(occ) at least.
    if (header.table_size > header.k) {
      return {LoadErrorCode::kCorrupt, "table size exceeds k"};
    }
    const u8* ctrl = base + header.sections[kTableCtrl].offset;
    const auto* slots = reinterpret_cast<const Slot*>(
        base + header.sections[kTableSlots].offset);
    std::vector<u32> lengths;
    lengths.reserve(header.table_size);
    for (u64 s = 0; s < capacity; ++s) {
      if (ctrl[s] != Table::kEmpty) lengths.push_back(slots[s].key.len);
    }
    if (lengths.size() != header.table_size) {
      return {LoadErrorCode::kCorrupt,
              "occupied table slots differ from header table_size"};
    }
    std::sort(lengths.begin(), lengths.end());
    if (std::unique(lengths.begin(), lengths.end()) - lengths.begin() !=
        header.num_lengths) {
      return {LoadErrorCode::kCorrupt,
              "distinct key lengths differ from header num_lengths"};
    }
  }

  // AdoptView re-validates the learned payload's own header and geometry;
  // the entry's epsilon/num_segments must agree with the adopted model, or
  // the file is inconsistent with itself.
  LearnedSa model;
  if (learned && (!model.AdoptView(base + ext.offset, ext.length) ||
                  model.epsilon() != ext.epsilon ||
                  model.num_segments() != ext.num_segments ||
                  model.fit_n() != header.n)) {
    return {LoadErrorCode::kCorrupt,
            "learned section payload inconsistent with entry"};
  }
  return LoadError{};
}

std::unique_ptr<UsiIndex> UsiIndex::OpenImage(const WeightedString& ws,
                                              const std::string& path,
                                              bool mapped, LoadError* error) {
  if (error != nullptr) *error = LoadError{};
  int open_errno = 0;
  std::unique_ptr<MappedFile> image =
      mapped ? MappedFile::OpenReadOnly(path, &open_errno)
             : MappedFile::ReadIntoMemory(path, &open_errno);
  if (image == nullptr) {
    return open_errno == ENOENT
               ? LoadFail(error, LoadErrorCode::kNotFound,
                          "cannot open " + path)
               : LoadFail(error, LoadErrorCode::kIo, "cannot read " + path);
  }
  // Owned bytes are read once, so every payload is verified: an owned read
  // never trusts an image it has not checksummed.
  ValidatedImage parsed;
  LoadError verdict = ValidateImage({image->data(), image->size()}, &ws,
                                    /*verify_payloads=*/!mapped, &parsed);
  if (verdict.code != LoadErrorCode::kOk) {
    return LoadFail(error, verdict.code, std::move(verdict.message));
  }
  // Serving probes a mapping's pages out of order; default readahead would
  // fault in neighbours pointlessly. (A no-op on owned bytes.)
  image->AdviseRandom();
  return std::unique_ptr<UsiIndex>(new UsiIndex(
      ImageTag{}, ws,
      Image{std::move(image), parsed.header, parsed.learned, UsiBuildInfo{}}));
}

}  // namespace usi
