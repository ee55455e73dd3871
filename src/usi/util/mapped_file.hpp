#ifndef USI_UTIL_MAPPED_FILE_HPP_
#define USI_UTIL_MAPPED_FILE_HPP_

/// \file mapped_file.hpp
/// Read-only file images (memory-mapped, or read into an owned heap buffer)
/// and the atomic publish protocol.
///
/// This is the substrate of index format v3 (core/index_format.hpp): an
/// index file whose on-disk layout IS the in-memory layout is opened with
/// MappedFile and served straight out of the page cache — near-zero startup,
/// demand paging, and kernel-shared pages across serving processes.
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

/// Read-only image of a whole file: mmap'd (OpenReadOnly) or copied into an
/// owned heap buffer (ReadIntoMemory). The image lives for the object's
/// lifetime; spans handed out by data() are invalidated by destruction.
///
/// Every open mapping is registered with the process-wide SIGBUS guard (see
/// MappedFaultGuard): a fault on a registered range — a page whose backing
/// file was truncated or revoked after open — can be converted into a clean
/// "this batch failed" return instead of crashing the process. A heap image
/// is process memory, so it is never registered: truncating the file
/// afterwards cannot fault a reader.
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

  /// The heap counterpart of OpenReadOnly: reads all of \p path into one
  /// owned buffer aligned to kHeapImageAlign. Returns nullptr on open, stat
  /// or read failure (or when the file shrinks mid-read); \p out_errno as
  /// for OpenReadOnly.
  static std::unique_ptr<MappedFile> ReadIntoMemory(const std::string& path,
                                                    int* out_errno = nullptr);

  /// Alignment of ReadIntoMemory buffers: one cache line, the section
  /// alignment of the v3 index image, so section casts land aligned.
  static constexpr std::size_t kHeapImageAlign = 64;

  ~MappedFile();

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// First byte of the image. Page-aligned when mapped (mmap guarantee),
  /// kHeapImageAlign-aligned otherwise, so any section offset aligned in
  /// the file is equally aligned in memory.
  const u8* data() const { return data_; }

  /// Image length in bytes (the file size at open time).
  std::size_t size() const { return size_; }

  /// Whether the image is an mmap of the file (OpenReadOnly).
  bool mapped() const { return mapped_; }

  /// Advises the kernel the whole mapping will be read sequentially soon
  /// (readahead for eager validation passes). Best-effort; no-op on a heap
  /// image.
  void AdviseWillNeed() const;

  /// Advises random access (index serving probes pages out of order;
  /// default readahead would drag in neighbours pointlessly). Best-effort;
  /// no-op on a heap image.
  void AdviseRandom() const;

 private:
  MappedFile(const u8* data, std::size_t size, bool mapped);

  const u8* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = true;
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

  /// Lifetime count of SIGBUS faults the guard recovered from.
  static u64 RecoveredFaults();
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
