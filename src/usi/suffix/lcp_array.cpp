#include "usi/suffix/lcp_array.hpp"

#include <algorithm>

#include "usi/parallel/thread_pool.hpp"

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
void KasaiRange(const Text& text, std::span<const index_t> sa,
                std::span<const index_t> rank, index_t begin, index_t end,
                std::span<index_t> lcp) {
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

void BuildLcpArray(const Text& text, std::span<const index_t> sa,
                   std::span<index_t> rank, std::span<index_t> lcp,
                   ThreadPool* pool) {
  const std::size_t n = text.size();
  USI_CHECK(sa.size() == n && rank.size() >= n && lcp.size() == n);
  if (n == 0) return;
  for (std::size_t i = 0; i < n; ++i) rank[sa[i]] = static_cast<index_t>(i);
  lcp[0] = 0;

  const unsigned workers = pool == nullptr ? 1 : pool->thread_count();
  if (workers <= 1 || n < 4096) {
    KasaiRange(text, sa, rank, 0, static_cast<index_t>(n), lcp);
    return;
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
}

std::vector<index_t> BuildLcpArray(const Text& text,
                                   std::span<const index_t> sa,
                                   ThreadPool* pool) {
  std::vector<index_t> rank(text.size()), lcp(text.size());
  BuildLcpArray(text, sa, rank, lcp, pool);
  return lcp;
}

}  // namespace usi
