#ifndef USI_UTIL_MAPPED_FILE_HPP_
#define USI_UTIL_MAPPED_FILE_HPP_

/// \file mapped_file.hpp
/// Index images (a file mapping, or an owned anonymous mapping) and the
/// atomic publish protocol.
///
/// This is the substrate of index format v3 (core/index_format.hpp), whose
/// on-disk layout IS the in-memory layout: every UsiIndex serves from one
/// MappedFile, which the builder writes in place, LoadFromFile reads a file
/// into, or OpenMapped maps straight out of the page cache — near-zero
/// startup, demand paging, and kernel-shared pages across processes.
///
/// \par Atomic publish protocol
/// Every persisted artifact goes through the same three-step protocol, so a
/// crash at ANY instant leaves the destination path either absent or holding
/// a complete previous image — never a torn write:
///
///   1. stage:   write the full image to `path.tmp.<pid>` (StageTempPath),
///   2. sync:    fsync the staged file (its bytes are durable before any
///               name points at them),
///   3. publish: rename(2) onto `path` — atomic within a filesystem — then
///               fsync the parent directory so the new name itself is
///               durable.
///
/// PublishFile implements steps 2-3. A process killed before the rename
/// leaves only a stale `path.tmp.<pid>` sibling, which readers never open
/// (the destination still holds the previous good image); RemoveStaleTemps
/// sweeps such leftovers on the next startup.

#include <csetjmp>
#include <cstddef>
#include <memory>
#include <string>
#include <utility>

#include "usi/util/common.hpp"

namespace usi {

/// One index image in memory: a mapping of the file itself (OpenReadOnly),
/// or an owned, private anonymous mapping — read from a file
/// (ReadIntoMemory) or written in place (CreateOwned, then Seal). Spans
/// handed out by data() are invalidated by destruction (and, on an
/// unsealed owned image, by Resize).
///
/// Only file mappings are registered with the process-wide SIGBUS guard
/// (see MappedFaultGuard): a fault on one — a page whose backing file was
/// truncated or revoked after open — can be converted into a clean "this
/// batch failed" return instead of crashing the process. An owned image is
/// process memory, so truncating the file afterwards cannot fault a reader.
class MappedFile {
 public:
  /// Maps \p path read-only (MAP_SHARED, so identical pages are shared with
  /// every other process mapping the same file). An empty file has nothing
  /// to map and yields an empty, unmapped image, as ReadIntoMemory does.
  /// Returns nullptr on open, stat, or mmap failure, or for a non-regular
  /// file. \p out_errno, when non-null, receives the errno of a failed
  /// open/stat (0 for other failures), so callers can distinguish a missing
  /// file from an unreadable one.
  static std::unique_ptr<MappedFile> OpenReadOnly(const std::string& path,
                                                  int* out_errno = nullptr);

  /// The owned counterpart of OpenReadOnly: reads all of \p path into an
  /// owned image and seals it. Returns nullptr on any I/O failure (or when
  /// the file shrinks mid-read); \p out_errno as for OpenReadOnly. Throws
  /// std::bad_alloc as CreateOwned does.
  static std::unique_ptr<MappedFile> ReadIntoMemory(const std::string& path,
                                                    int* out_errno = nullptr);

  /// A writable, zero-filled owned image of \p size bytes, advised
  /// MADV_HUGEPAGE once. Pages never written cost no RSS. Throws
  /// std::bad_alloc when the mapping fails.
  static std::unique_ptr<MappedFile> CreateOwned(std::size_t size);

  ~MappedFile();

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// First byte of the image; page-aligned (mmap guarantee), so any section
  /// offset aligned in the file is equally aligned in memory.
  const u8* data() const { return data_; }

  /// Writable bytes of an owned image that is not sealed yet.
  u8* mutable_data() {
    USI_CHECK(!mapped_ && !sealed_);
    return data_;
  }

  /// Image length in bytes (the file size at open time).
  std::size_t size() const { return size_; }

  /// Whether the image is an mmap of the file (OpenReadOnly).
  bool mapped() const { return mapped_; }

  /// Grows or trims an owned, unsealed image (mremap: it may move; grown
  /// bytes read zero). Throws std::bad_alloc, changing nothing, on failure.
  void Resize(std::size_t size);

  /// Makes an owned image read-only (mprotect).
  void Seal();

  /// Advises the kernel the whole mapping will be read sequentially soon
  /// (readahead for eager validation passes). Best-effort; no-op on an
  /// owned image.
  void AdviseWillNeed() const;

  /// Advises random access (index serving probes pages out of order;
  /// default readahead would drag in neighbours pointlessly). Best-effort;
  /// no-op on an owned image.
  void AdviseRandom() const;

 private:
  MappedFile(u8* data, std::size_t size, bool mapped);

  u8* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = true;
  bool sealed_ = false;
};

namespace detail {

/// RAII frame for one guarded region on this thread: pushes a sigjmp target
/// the SIGBUS handler longjmps to when a fault lands inside a registered
/// mapped range. Frames nest (the previous target is restored on exit).
/// Internal to MappedFaultGuard::Run.
class FaultJmpScope {
 public:
  FaultJmpScope();
  ~FaultJmpScope();
  FaultJmpScope(const FaultJmpScope&) = delete;
  FaultJmpScope& operator=(const FaultJmpScope&) = delete;
  sigjmp_buf& jmp() { return buf_; }

 private:
  sigjmp_buf buf_;
  void* prev_;  ///< The enclosing frame's target (restored by the dtor).
};

}  // namespace detail

/// Converts SIGBUS on registered mapped ranges into a boolean failure.
///
/// A mapped index is only as durable as its backing file: truncate it (or
/// revoke the storage under it) while a query is demand-paging and the read
/// raises SIGBUS — by default, process death. Run(fn) executes fn with a
/// guard frame installed; if a fault lands inside any registered MappedFile
/// range, control returns here and Run reports false, letting the serving
/// layer fail the batch with kIndexUnavailable and fall back.
///
/// \par Containment contract
///  * Faults OUTSIDE registered ranges (a genuine heap/stack bug) re-raise
///    with the default disposition — the guard never swallows real crashes.
///  * Recovery uses siglongjmp, which unwinds no destructors: fn must be
///    effectively leaf code over plain buffers (the query path over mapped
///    sections qualifies: scratch buffers are owned by the caller and
///    reused, not freed). The skipped-destructor leak on the crash path is
///    the accepted price of not dying.
///  * The handler is async-signal-safe: the range registry is a fixed array
///    of atomics read lock-free, installed lazily on first registration.
///  * A fault while NO frame is active (mapped read outside Run) re-raises:
///    only explicitly guarded regions degrade.
class MappedFaultGuard {
 public:
  /// Runs \p fn; returns true when it completed, false when a SIGBUS on a
  /// registered mapped range aborted it. With no mappings registered this
  /// is a plain call (no sigsetjmp on the hot path).
  template <typename Fn>
  static bool Run(Fn&& fn) {
    if (!Engaged()) {
      std::forward<Fn>(fn)();
      return true;
    }
    detail::FaultJmpScope scope;
    if (sigsetjmp(scope.jmp(), 1) != 0) return false;  // Fault unwound here.
    std::forward<Fn>(fn)();
    return true;
  }

  /// Whether any mapped range is currently registered (i.e. a fault is
  /// possible and Run must arm a frame).
  static bool Engaged();
};

/// 64-bit checksum over an arbitrary byte range: FNV-1a folded over 64-bit
/// lanes with a final avalanche, so it runs at memory bandwidth instead of
/// the byte-at-a-time rate (section checksums cover multi-GB arrays). Not
/// cryptographic — it detects corruption, not adversaries.
u64 Checksum64(const void* data, std::size_t bytes);

/// The staging sibling the atomic publish protocol writes to:
/// `path.tmp.<pid>`. Pid-suffixed so concurrent writers never collide and a
/// crash leaves an identifiable leftover.
std::string StageTempPath(const std::string& path);

/// Steps 2-3 of the protocol: fsync \p staged, rename it onto \p path, then
/// fsync the parent directory. On any failure the staged file is left in
/// place (the caller removes it) and \p path is untouched. Returns success.
bool PublishFile(const std::string& staged, const std::string& path);

/// Removes leftover `path.tmp.*` staging siblings from crashed writers.
/// Safe to call while other processes serve from \p path — only staging
/// names are touched, never the published file. Returns how many were
/// removed.
int RemoveStaleTemps(const std::string& path);

}  // namespace usi

#endif  // USI_UTIL_MAPPED_FILE_HPP_
