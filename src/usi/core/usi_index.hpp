#ifndef USI_CORE_USI_INDEX_HPP_
#define USI_CORE_USI_INDEX_HPP_

/// \file usi_index.hpp
/// USI_TOP-K (Section IV, Theorem 1): the paper's data structure for Useful
/// String Indexing.
///
/// Components: a hash table H of precomputed global utilities of the top-K
/// frequent substrings (keyed by Karp-Rabin fingerprint + length), the text
/// index (suffix array as the suffix-tree leaf order), and the prefix-sums
/// array PSW. Queries: O(m) fingerprint + O(1) probe on a hit; O(m log n +
/// occ) <= O(m log n + tau_K) via SA + PSW on a miss.
///
/// The top-K set comes from either miner:
///  * UET — Exact-Top-K (Section V): exact frequencies, SA intervals, and the
///    O(m + tau_K) query guarantee.
///  * UAT — Approximate-Top-K (Section VI): smaller construction space; the
///    guarantee is forfeited (Section VI discusses why) but practice is
///    competitive, as Fig. 6 shows.
///
/// Construction runs through the staged UsiBuilder (usi_builder.hpp): SA,
/// mining, and the phase (ii) table population are instrumented stages; SA
/// and mining run on a thread pool when one is given — with byte-identical
/// serialized output to a sequential build.
///
/// Every index serves from one v3 image (index_format.hpp): SA, PSW and H
/// view its sections. UsiBuilder writes it into an owned mapping,
/// LoadFromFile reads a file into one and OpenMapped maps the file; all
/// three end in one private fixup, so they serve, size and save alike.

#include <memory>
#include <span>
#include <string>

#include "usi/core/index_format.hpp"
#include "usi/core/query_engine.hpp"
#include "usi/core/utility.hpp"
#include "usi/hash/fingerprint_table.hpp"
#include "usi/hash/karp_rabin.hpp"
#include "usi/suffix/learned_sa.hpp"
#include "usi/text/weighted_string.hpp"
#include "usi/topk/approximate_topk.hpp"
#include "usi/topk/topk_types.hpp"
#include "usi/util/mapped_file.hpp"

namespace usi {

class ThreadPool;
class UsiBuilder;

/// Which mining algorithm feeds construction phase (i).
enum class UsiMiner : u8 {
  kExact,        ///< UET.
  kApproximate,  ///< UAT.
};

/// Why LoadFromFile / OpenMapped refused a file. The nullptr-returning
/// entry points collapse every failure into "no index"; the LoadError
/// out-param overloads keep the distinction, so operators (usi_inspect) and
/// supervising layers can tell a missing file from a corrupt one.
enum class LoadErrorCode : u8 {
  kOk = 0,
  kNotFound,      ///< The file does not exist (or cannot be opened).
  kIo,            ///< Read/stat/mmap failed on an existing file.
  kBadFormat,     ///< Unrecognized magic or version — not an index file.
  kCorrupt,       ///< Checksum, geometry, or consistency check failed.
  kTextMismatch,  ///< Saved over a text of a different length than \p ws.
  kHostMismatch,  ///< Host layout differs (slot bytes / index width).
};

/// Display name of a LoadErrorCode ("ok", "not-found", ...).
const char* LoadErrorCodeName(LoadErrorCode code);

/// Typed load/open failure: the machine-readable code plus a one-line
/// human-readable message naming the check that failed.
struct LoadError {
  LoadErrorCode code = LoadErrorCode::kOk;
  std::string message;
};

/// Construction options for UsiIndex.
struct UsiOptions {
  /// Number of top-K frequent substrings to precompute; 0 means n/100, the
  /// K = Theta(n) regime Section IV recommends.
  u64 k = 0;
  GlobalUtilityKind utility = GlobalUtilityKind::kSum;
  UsiMiner miner = UsiMiner::kExact;
  ApproximateTopKOptions approx = {};  ///< Used when miner == kApproximate.
  u64 hash_seed = 0x05111;             ///< Karp-Rabin base seed.
  /// Error bound ε for the learned fallback model (the "learn" build
  /// stage); 0 skips the stage and serves table misses by plain binary
  /// search. learned_sa.hpp documents the contract.
  u32 learned_epsilon = kDefaultLearnedEpsilon;
  /// Build parallelism: 1 = sequential (default), 0 = hardware concurrency,
  /// N > 1 = a pool of N threads. Any value yields byte-identical
  /// SaveToFile output; see UsiBuilder for the determinism contract.
  unsigned threads = 1;
};

/// Construction telemetry (used by the Fig. 6 benches and by tuning).
struct UsiBuildInfo {
  u64 k = 0;                ///< Effective K.
  index_t tau_k = 0;        ///< Min frequency among mined substrings.
  index_t num_lengths = 0;  ///< L_K: distinct lengths among them.
  double sa_seconds = 0;    ///< Stage 1: suffix-array construction.
  double mining_seconds = 0;  ///< Stage 2: phase (i) top-K mining.
  double table_seconds = 0;  ///< Stage 3: phase (ii) SA-sweep table fill.
  double learn_seconds = 0;  ///< Stage 4: learned fallback-model fit.
  double total_seconds = 0;
  unsigned threads_used = 1;  ///< Pool width the build ran with.
  /// Process peak RSS (VmHWM) after the build, and how much each stage grew
  /// it — the memory-lean staging contract: each stage releases its dead
  /// intermediates before the next one allocates, so the per-stage deltas
  /// show which stage actually set the peak. 0 where /proc is unavailable.
  std::size_t peak_rss_bytes = 0;
  std::size_t sa_rss_delta_bytes = 0;
  std::size_t mining_rss_delta_bytes = 0;
  std::size_t table_rss_delta_bytes = 0;
  std::size_t learn_rss_delta_bytes = 0;
};

/// The USI_TOP-K index over a weighted string.
class UsiIndex : public QueryEngine {
 public:
  /// Builds the index. \p ws is borrowed and must outlive the index.
  /// options.threads > 1 (or 0) runs the parallel build pipeline, on
  /// \p pool when one is given (borrowed).
  UsiIndex(const WeightedString& ws, const UsiOptions& options = {},
           ThreadPool* pool = nullptr);

  /// Persists the index as a v3 image (index_format.hpp documents the
  /// layout), which both OpenMapped and LoadFromFile open: the bytes the
  /// index serves from, with the header sealed (section, learned-entry and
  /// header checksums computed). The builder stores H's entries in
  /// canonical (length, fingerprint) order, so equal indexes serialize to
  /// equal bytes regardless of build schedule; and the save goes through
  /// the atomic publish protocol (stage to
  /// `path.tmp.<pid>`, fsync, rename, fsync parent — util/mapped_file.hpp),
  /// so a crash mid-save never leaves a torn file at \p path. Returns false
  /// on any I/O failure, INCLUDING the final flush — an out-of-space file is
  /// reported, not published.
  bool SaveToFile(const std::string& path,
                  IndexFileFormat format = IndexFileFormat::kV3Mapped) const;

  /// SaveToFile knobs.
  struct SaveOptions {
    /// Include the learned-model section when the index has one (an index
    /// without one saves without one). False omits it — the image opens
    /// and serves fine, answering misses by plain binary search (also the
    /// shape every pre-extension image has).
    bool learned_section = true;
  };

  /// As above with explicit \p save_options.
  bool SaveToFile(const std::string& path, IndexFileFormat format,
                  const SaveOptions& save_options) const;

  /// Opens a kV3Mapped file by mmap: the shallow ValidateImage (O(1): header,
  /// section directory and learned entry, no payload read) and pointer
  /// fixup only — no array is read until queries touch it (demand paging),
  /// and the page cache is shared across processes serving the same file.
  /// The mapping lives inside the returned index. Returns nullptr on I/O
  /// failure or any ValidateImage refusal, reporting WHY through \p error
  /// when it is non-null (always written: kOk on success). A verified open
  /// is LoadFromFile.
  static std::unique_ptr<UsiIndex> OpenMapped(const WeightedString& ws,
                                              const std::string& path,
                                              LoadError* error = nullptr);

  /// Owned-read open of a v3 image saved over the same weighted string: the
  /// file is read into one owned anonymous mapping, the verifying
  /// ValidateImage runs over it (every section payload, the learned one
  /// too, is checksummed and the SA range-checked), then the same pointer
  /// fixup as OpenMapped. The result is not mapped (IsMapped() is false):
  /// truncating the file later cannot fault it. Returns nullptr on I/O
  /// failure or any ValidateImage refusal, reporting WHY as OpenMapped does.
  static std::unique_ptr<UsiIndex> LoadFromFile(const WeightedString& ws,
                                                const std::string& path,
                                                LoadError* error = nullptr);

  /// What ValidateImage read out of an image, copied as soon as the image
  /// is long enough to hold it (whatever the verdict, so usi_inspect can
  /// dump a refused file).
  struct ValidatedImage {
    format_v3::FileHeader header;
    format_v3::LearnedSectionEntry learned;  ///< ext_magic 0: absent.
  };

  /// The v3 validity rules, the only copy: OpenMapped runs them shallow,
  /// LoadFromFile verifying, and `usi_inspect info` prints their verdict.
  /// In order, each failure with its code:
  ///  * a header-sized file with the v3 magic and version (kBadFormat);
  ///  * the header checksum, then file_bytes == image size (kCorrupt);
  ///  * the text length, when \p ws is non-null (kTextMismatch);
  ///  * the kind, miner and Karp-Rabin base (kCorrupt);
  ///  * slot_bytes (kHostMismatch), then the table capacity/size pair and
  ///    the section-directory geometry (kCorrupt);
  ///  * the learned extension entry — magic, entry checksum and geometry —
  ///    or, without one, no bytes past the last section (kCorrupt);
  ///  * with \p verify_payloads, every payload checksum and the SA range
  ///    scan, then table_size <= k, the occupied ctrl bytes against
  ///    table_size and the distinct record key lengths against num_lengths
  ///    (kCorrupt): one sequential O(file) pass;
  ///  * the learned payload adopts, and its epsilon, segment count and fit
  ///    length match the entry and header (kCorrupt).
  /// Without \p verify_payloads every check is O(1). Returns the first
  /// failure, or kOk. \p image must be 64-byte aligned (a MappedFile is);
  /// \p out may be null.
  static LoadError ValidateImage(std::span<const u8> image,
                                 const WeightedString* ws,
                                 bool verify_payloads, ValidatedImage* out);

  /// Answers U(P): hash-table hit in O(m), otherwise SA + PSW fallback.
  /// Safe to call concurrently (the index is immutable after construction).
  QueryResult Query(std::span<const Symbol> pattern) const;

  /// Batch-aware answer path, identical results to per-pattern Query but
  /// substantially cheaper: every pattern is fingerprinted on its own (the
  /// 8-symbol block hash), table probes on large tables run with software
  /// prefetch pipelined ahead, and misses are staged and then resolved in
  /// bulk (one batched learned search when the index has a learned model).
  /// Patterns are borrowed from caller storage, and the call is
  /// allocation-free once \p scratch (may be null) has grown to the
  /// workload's batch shape. Safe to call concurrently as long as each call
  /// owns its scratch.
  void QueryBatch(std::span<const PatternSpan> patterns,
                  std::span<QueryResult> results,
                  QueryScratch* scratch) const;

  /// Sliding-window workloads: answers U for every length-\p window_len
  /// window of \p document (results[i] = U(document[i..i+window_len-1]);
  /// results.size() must be document.size() - window_len + 1). One O(1)
  /// rolling-hash step per window instead of an O(window_len) rehash, so
  /// table hits cost O(|document|) total. Safe to call concurrently.
  void QueryAllWindows(std::span<const Symbol> document, index_t window_len,
                       std::span<QueryResult> results) const;

  /// QueryEngine interface.
  QueryResult Query(std::span<const Symbol> pattern) override {
    return static_cast<const UsiIndex*>(this)->Query(pattern);
  }
  void QueryBatch(std::span<const PatternSpan> patterns,
                  std::span<QueryResult> results,
                  QueryScratch* scratch) override {
    static_cast<const UsiIndex*>(this)->QueryBatch(patterns, results, scratch);
  }
  const char* Name() const override {
    return miner_ == UsiMiner::kExact ? "UET" : "UAT";
  }
  bool SupportsConcurrentQuery() const override { return true; }

  /// Convenience: just the utility value.
  double Utility(std::span<const Symbol> pattern) const {
    return Query(pattern).utility;
  }

  /// Construction telemetry.
  const UsiBuildInfo& build_info() const { return build_info_; }

  /// The aggregation kind answers are finalized with. The update tier's
  /// delta merge must fold base and delta partials with the same kind.
  GlobalUtilityKind utility_kind() const { return kind_; }

  /// The learned fallback model. empty() when the build disabled it
  /// (learned_epsilon == 0) or the opened image carries no learned section —
  /// misses then go through plain binary search.
  const LearnedSa& learned_sa() const { return learned_; }

  /// Number of precomputed entries in H.
  std::size_t HashTableEntries() const { return table_.size(); }

  /// Index size: SA + PSW + H + the learned model + the fallback engine
  /// object (the text is borrowed, as in the paper's accounting, which
  /// reports the index on top of S): the image's section bytes, the same
  /// for a built, a read and a mapped index over one image.
  std::size_t SizeInBytes() const override;

  /// The suffix array (exposed for examples and tests): the image's SA
  /// section.
  std::span<const index_t> sa() const { return sa_span_; }

  /// Whether this index serves straight out of an mmap'd file (OpenMapped).
  bool IsMapped() const { return image_->mapped(); }

 private:
  friend class UsiBuilder;

  /// Value stored in H: a utility accumulator (value + occurrence count).
  using TableValue = UtilityAccumulator;
  using Table = FingerprintTable<TableValue>;

  /// The four core sections of a v3 image over \p n symbols with a
  /// \p capacity-slot table, and where the last ends: the layout the
  /// builder writes and ValidateImage checks.
  struct CoreLayout {
    u64 offset[format_v3::kNumSections];
    u64 length[format_v3::kNumSections];
    u64 end;
  };
  static CoreLayout LayoutCore(u64 n, u64 capacity);

  /// A finished image with copies of its header and learned entry: the
  /// builder's output, or an opened file after ValidateImage.
  struct Image {
    std::unique_ptr<MappedFile> bytes;
    format_v3::FileHeader header;
    format_v3::LearnedSectionEntry learned;  ///< ext_magic 0: absent.
    UsiBuildInfo build_info;  ///< k, tau_k and num_lengths come from header.
  };

  /// The fixup every index ends in: views \p image's sections and wires
  /// the fallback path. The tag keeps the public (ws, options = {})
  /// constructor out of overload resolution with it.
  struct ImageTag {};
  UsiIndex(ImageTag, const WeightedString& ws, Image image);

  /// Shared body of OpenMapped and LoadFromFile: \p path mapped (\p mapped)
  /// or read into an owned mapping, ValidateImage over it (verifying every
  /// payload of an owned read), then the fixup.
  static std::unique_ptr<UsiIndex> OpenImage(const WeightedString& ws,
                                             const std::string& path,
                                             bool mapped, LoadError* error);

  const WeightedString* ws_;
  GlobalUtilityKind kind_;
  UsiMiner miner_;
  KarpRabinHasher hasher_;
  /// The SA every query path reads: the image's SA section.
  std::span<const index_t> sa_span_;
  PrefixSumWeights psw_;
  Table table_;
  /// Learned last-mile model for table misses (empty when the image has no
  /// learned section).
  LearnedSa learned_;
  ExhaustiveQueryEngine fallback_;
  UsiBuildInfo build_info_;
  /// The image every structure above views. Declared last: the views are
  /// initialized from it before it moves in, and their destructors never
  /// dereference it.
  std::unique_ptr<MappedFile> image_;
};

}  // namespace usi

#endif  // USI_CORE_USI_INDEX_HPP_
