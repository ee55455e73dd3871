#include "usi/suffix/esa.hpp"

#include <algorithm>

namespace usi {
namespace {

/// Below this many steps the chunked traversal is pure overhead.
constexpr index_t kParallelEnumerateThreshold = index_t{1} << 14;

}  // namespace

std::vector<std::vector<LcpStackEntry>> LcpIntervalStacksAt(
    const std::vector<index_t>& lcp, const std::vector<index_t>& boundaries,
    std::size_t max_entries) {
  std::vector<std::vector<LcpStackEntry>> snapshots;
  snapshots.reserve(boundaries.size());
  if (boundaries.empty()) return snapshots;
  const index_t m = static_cast<index_t>(lcp.size());
  std::vector<LcpStackEntry> stack;
  stack.push_back({0, 0});
  std::size_t next = 0;
  std::size_t entries = 0;
  for (index_t i = 1; i <= m && next < boundaries.size(); ++i) {
    USI_DCHECK(boundaries[next] >= 1 && boundaries[next] <= m);
    if (i == boundaries[next]) {
      entries += stack.size();
      if (entries > max_entries) return {};
      snapshots.push_back(stack);
      ++next;
      if (next == boundaries.size()) break;
    }
    // Exactly the stack transitions of EnumerateSuffixTreeNodeRange step i.
    const index_t current_lcp = (i < m) ? lcp[i] : 0;
    index_t lb = i - 1;
    while (stack.back().lcp > current_lcp) {
      lb = stack.back().lb;
      stack.pop_back();
    }
    if (stack.back().lcp < current_lcp) stack.push_back({current_lcp, lb});
  }
  USI_DCHECK(snapshots.size() == boundaries.size());
  return snapshots;
}

EsaChunks::EsaChunks(const std::vector<index_t>& lcp, ThreadPool* pool)
    : m_(static_cast<index_t>(lcp.size())) {
  const unsigned workers = pool == nullptr ? 1 : pool->thread_count();
  if (workers <= 1 || m_ < kParallelEnumerateThreshold) return;
  // A few chunks per worker smooth out uneven ranges. Boundaries are clamped
  // to [1, m] (ceil rounding in span can push the nominal last boundaries
  // past m at extreme pool widths); the real chunk count follows from the
  // boundaries that survived.
  const std::size_t want_chunks = std::min<std::size_t>(
      4 * workers,
      std::max<std::size_t>(2, m_ / (kParallelEnumerateThreshold / 4)));
  const index_t span =
      static_cast<index_t>((m_ + want_chunks - 1) / want_chunks);
  for (std::size_t c = 1;
       c < want_chunks && 1 + c * static_cast<std::size_t>(span) <= m_; ++c) {
    boundaries_.push_back(static_cast<index_t>(1 + c * span));
  }
  // Bounded at m/2 entries: deeper stacks fall back to one chunk.
  stacks_ = LcpIntervalStacksAt(lcp, boundaries_, m_ / 2);
  if (stacks_.empty()) boundaries_.clear();
}

}  // namespace usi
