#include "usi/suffix/lcp_array.hpp"

#include <algorithm>

#include "usi/parallel/thread_pool.hpp"
#include "usi/suffix/suffix_array.hpp"

namespace usi {
namespace {

/// Kasai's scan over the text-position range [begin, end): each position
/// writes exactly one LCP slot (lcp[rank[i]]), so disjoint ranges write
/// disjoint slots and the chunked passes compose race-free.
///
/// Position i reads sa[rank[i] - 1], writes lcp[rank[i]] and compares text
/// at sa[rank[i] - 1] + h: three random accesses per position. The scan
/// prefetches them in two waves, so their misses overlap across positions:
/// the SA and LCP slots kSlotLead positions ahead, and the text bytes of
/// the predecessor kTextLead positions ahead (its SA slot prefetched
/// kSlotLead - kTextLead positions earlier; h is the current lcp, which
/// stays close to the one that position will start from). Every address is
/// clamped to its array.
void KasaiRange(const Text& text, const std::vector<index_t>& sa,
                const std::vector<index_t>& rank, index_t begin, index_t end,
                std::vector<index_t>& lcp) {
  constexpr index_t kSlotLead = 16;
  constexpr index_t kTextLead = 8;
  const index_t n = static_cast<index_t>(text.size());
  const Symbol* const text_p = text.data();
  index_t h = 0;
  for (index_t i = begin; i < end; ++i) {
    if (i + kSlotLead < n) {
      const index_t r = rank[i + kSlotLead];
      __builtin_prefetch(&sa[r == 0 ? 0 : r - 1]);
      __builtin_prefetch(&lcp[r], 1);
    }
    if (i + kTextLead < n) {
      const index_t r = rank[i + kTextLead];
      const index_t j = sa[r == 0 ? 0 : r - 1];
      __builtin_prefetch(
          text_p + std::min<std::size_t>(std::size_t{j} + h, n - 1));
    }
    if (rank[i] == 0) {
      h = 0;
      continue;
    }
    const index_t j = sa[rank[i] - 1];
    if (h > 0) --h;  // Kasai's invariant: lcp drops by at most one.
    while (i + h < n && j + h < n && text[i + h] == text[j + h]) ++h;
    lcp[rank[i]] = h;
  }
}

}  // namespace

std::vector<index_t> BuildLcpArray(const Text& text,
                                   const std::vector<index_t>& sa,
                                   ThreadPool* pool) {
  const std::size_t n = text.size();
  std::vector<index_t> lcp(n, 0);
  if (n == 0) return lcp;
  const std::vector<index_t> rank = InverseSuffixArray(sa);

  const unsigned workers = pool == nullptr ? 1 : pool->thread_count();
  if (workers <= 1 || n < 4096) {
    KasaiRange(text, sa, rank, 0, static_cast<index_t>(n), lcp);
    return lcp;
  }

  // A handful of chunks per worker smooths out ranges whose suffixes have
  // unusually long matches; each chunk restarts Kasai's h at zero.
  const std::size_t chunks = std::min<std::size_t>(n, 4 * workers);
  const std::size_t chunk_len = (n + chunks - 1) / chunks;
  ParallelFor(pool, chunks, [&](std::size_t c, unsigned /*worker*/) {
    const index_t begin = static_cast<index_t>(c * chunk_len);
    const index_t end =
        static_cast<index_t>(std::min(n, (c + 1) * chunk_len));
    KasaiRange(text, sa, rank, begin, end, lcp);
  });
  return lcp;
}

}  // namespace usi
