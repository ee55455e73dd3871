#ifndef USI_UTIL_MEMORY_HPP_
#define USI_UTIL_MEMORY_HPP_

/// \file memory.hpp
/// Memory accounting for the space experiments (Fig. 5a-d, Fig. 6k-p).
///
/// The paper reports peak resident set size (/usr/bin/time -v) and index size
/// (mallinfo2). At laptop scale we report (a) the process peak RSS read from
/// /proc/self/status and (b) exact structure footprints via the per-structure
/// SizeInBytes() methods every index in this repository implements. Also
/// home of the cache-line-aligned allocator the probed record arrays use.

#include <cstddef>
#include <new>
#include <string>
#include <vector>

namespace usi {

/// Reads VmHWM (peak resident set size) in bytes from /proc/self/status.
/// Returns 0 if unavailable (non-Linux).
std::size_t ReadPeakRssBytes();

/// Reads VmRSS (current resident set size) in bytes.
std::size_t ReadCurrentRssBytes();

/// Returns the allocator's free heap memory to the OS (glibc malloc_trim;
/// a no-op elsewhere). Costs a walk over the heap, so call it where O(n)
/// memory was just dropped, never on a latency-sensitive path.
void ReleaseFreedHeap();

/// Formats a byte count as a human-readable string ("1.25 GB").
std::string FormatBytes(std::size_t bytes);

/// Heap footprint of a vector (capacity, not size).
template <typename T>
std::size_t VectorBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

/// Cache-line-aligned allocator for arrays of probed records (the
/// fingerprint table's entries, the degraded tier's answer cache). glibc
/// hands large allocations back at (page + 16), which would make half of
/// any 32-byte records straddle two cache lines — measurably slower probes.
/// A 64-byte base keeps every record load within the minimum number of
/// lines.
template <typename T>
struct CacheAlignedAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlign{64};

  CacheAlignedAllocator() = default;
  template <typename U>
  CacheAlignedAllocator(const CacheAlignedAllocator<U>&) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, kAlign);
  }

  template <typename U>
  bool operator==(const CacheAlignedAllocator<U>&) const {
    return true;
  }
  template <typename U>
  bool operator!=(const CacheAlignedAllocator<U>&) const {
    return false;
  }
};

}  // namespace usi

#endif  // USI_UTIL_MEMORY_HPP_
