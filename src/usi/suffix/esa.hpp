#ifndef USI_SUFFIX_ESA_HPP_
#define USI_SUFFIX_ESA_HPP_

/// \file esa.hpp
/// Enhanced-suffix-array view of the suffix tree.
///
/// Abouelhoda, Kurtz & Ohlebusch show a bottom-up traversal of the LCP array
/// visits exactly the lcp-intervals, which are the explicit internal nodes of
/// the suffix tree; adding the singleton leaf intervals yields every explicit
/// node with its frequency f(v) = rb - lb + 1, string depth sd(v), and parent
/// string depth. Section V's data structure and Section VI's sampled rounds
/// (Algorithm 4.4 of [37]) both consume this enumeration, so it is written
/// once, generic over (lcp, suffix lengths) — the dense and sparse cases pass
/// different arrays.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "usi/parallel/thread_pool.hpp"
#include "usi/text/alphabet.hpp"
#include "usi/util/common.hpp"

namespace usi {

/// An explicit suffix-tree node: the substrings it represents are the
/// prefixes of str(v) with lengths in (parent_depth, depth], each occurring
/// exactly rb - lb + 1 times (q(v) = depth - parent_depth of them).
struct SuffixTreeNode {
  index_t depth;         ///< sd(v).
  index_t parent_depth;  ///< sd(parent(v)); depth > parent_depth always.
  index_t lb;            ///< Left end of the (sparse) SA interval.
  index_t rb;            ///< Right end (inclusive).

  /// Frequency f(v): number of (sampled) occurrences.
  index_t frequency() const { return rb - lb + 1; }

  /// q(v): number of distinct substrings this node represents.
  index_t edge_length() const { return depth - parent_depth; }

  bool operator==(const SuffixTreeNode&) const = default;
};

/// One open lcp-interval on the bottom-up traversal stack: value \p lcp,
/// left boundary \p lb, right end still unknown.
struct LcpStackEntry {
  index_t lcp;
  index_t lb;

  bool operator==(const LcpStackEntry&) const = default;
};

/// Suffix lengths of a dense suffix array over a length-n text, read
/// straight off it: (*this)[k] = n - sa[k]. The traversal takes it in place
/// of a materialized suffix-length array, so it costs no extra n words.
struct DenseSuffixLengthView {
  const std::vector<index_t>* sa;
  index_t n;

  index_t operator[](std::size_t k) const { return n - (*sa)[k]; }
  std::size_t size() const { return sa->size(); }
};

/// Processes traversal steps i in [\p begin, \p end) of the bottom-up pass
/// (the full enumeration is steps 1 .. m inclusive). \p stack must hold the
/// open-interval stack as it stands *entering* step \p begin — {{0, 0}} for
/// begin == 1, or a snapshot from LcpIntervalStacksAt for a mid-array chunk;
/// it is advanced in place. Because the entering stack carries the true
/// global lb and lcp values, the emissions of this range are exactly the
/// emissions the full sequential pass makes during the same steps — which is
/// what lets chunked (pool-parallel) enumeration concatenate per-chunk
/// outputs into the byte-identical sequential order. \p suffix_len is a
/// std::vector<index_t> or a DenseSuffixLengthView.
template <typename SuffixLengths, typename EmitFn>
void EnumerateSuffixTreeNodeRange(const std::vector<index_t>& lcp,
                                  const SuffixLengths& suffix_len,
                                  index_t begin, index_t end,
                                  std::vector<LcpStackEntry>& stack,
                                  EmitFn emit) {
  const index_t m = static_cast<index_t>(suffix_len.size());
  USI_DCHECK(begin >= 1 && end <= m + 1);
  for (index_t i = begin; i < end; ++i) {
    const index_t current_lcp = (i < m) ? lcp[i] : 0;
    // Leaf for SA position i-1.
    {
      const index_t left_lcp = lcp[i - 1];  // lcp[0] == 0 by convention.
      const index_t parent_depth =
          std::max(i > 1 ? left_lcp : index_t{0}, current_lcp);
      const index_t depth = suffix_len[i - 1];
      if (depth > parent_depth) {
        emit(SuffixTreeNode{depth, parent_depth, i - 1, i - 1});
      }
    }
    index_t lb = i - 1;
    while (stack.back().lcp > current_lcp) {
      const LcpStackEntry top = stack.back();
      stack.pop_back();
      const index_t parent_depth = std::max(stack.back().lcp, current_lcp);
      emit(SuffixTreeNode{top.lcp, parent_depth, top.lb, i - 1});
      lb = top.lb;
    }
    if (stack.back().lcp < current_lcp) stack.push_back({current_lcp, lb});
  }
}

/// Enumerates every explicit node of the (possibly sparse) suffix tree in
/// one bottom-up pass over \p lcp. \p suffix_len[k] is the length of the
/// k-th lexicographically smallest (sampled) suffix. Nodes with
/// depth == parent_depth (possible for leaves whose suffix is a prefix of
/// the next one, and for the root) are not emitted. Order of emission is the
/// bottom-up lcp-interval order; leaves are emitted before the internal
/// nodes that close over them.
template <typename SuffixLengths, typename EmitFn>
void EnumerateSuffixTreeNodes(const std::vector<index_t>& lcp,
                              const SuffixLengths& suffix_len,
                              EmitFn emit) {
  const index_t m = static_cast<index_t>(suffix_len.size());
  if (m == 0) return;
  USI_DCHECK(lcp.size() == suffix_len.size());
  std::vector<LcpStackEntry> stack;
  stack.push_back({0, 0});
  EnumerateSuffixTreeNodeRange(lcp, suffix_len, 1, m + 1, stack, emit);
}

/// Replays only the stack transitions of the bottom-up traversal (no leaf
/// handling, no node construction — a far lighter loop than the full pass)
/// and snapshots the open-interval stack as it stands entering each step in
/// \p boundaries (ascending, each in [1, m]). Chunked enumeration seeds one
/// EnumerateSuffixTreeNodeRange per chunk from these snapshots. Returns
/// nothing once the snapshots together would hold more than \p max_entries
/// entries (the stack reaches ~m entries on periodic or unary text).
std::vector<std::vector<LcpStackEntry>> LcpIntervalStacksAt(
    const std::vector<index_t>& lcp, const std::vector<index_t>& boundaries,
    std::size_t max_entries = SIZE_MAX);

/// The traversal steps [1, m] cut into contiguous chunks for a pool, each
/// with the open-interval stack it enters with (LcpIntervalStacksAt). A
/// null or one-wide pool, or fewer than 2^14 steps, gives a single chunk;
/// so do stacks too deep to snapshot in O(m) (more than m/2 entries over
/// all boundaries, as on periodic or unary text), since every chunk copies
/// its entering stack again.
/// Every chunk emits exactly what the sequential pass emits during its
/// steps, so per-chunk outputs concatenated in chunk order reproduce the
/// sequential emission order at every pool width.
class EsaChunks {
 public:
  EsaChunks(const std::vector<index_t>& lcp, ThreadPool* pool);

  std::size_t size() const { return boundaries_.size() + 1; }
  index_t begin(std::size_t c) const {
    return c == 0 ? 1 : boundaries_[c - 1];
  }
  index_t end(std::size_t c) const {
    return c == boundaries_.size() ? m_ + 1 : boundaries_[c];
  }

  /// Runs the traversal of every chunk on the pool (inline for one chunk)
  /// and calls emit(chunk, node) for each node chunk emits, in emission
  /// order within the chunk. Chunks run concurrently: emit may touch only
  /// state owned by its chunk.
  template <typename SuffixLengths, typename EmitFn>
  void Enumerate(const std::vector<index_t>& lcp,
                 const SuffixLengths& suffix_len, ThreadPool* pool,
                 EmitFn emit) const {
    ParallelFor(size() == 1 ? nullptr : pool, size(),
                [&](std::size_t c, unsigned /*worker*/) {
                  std::vector<LcpStackEntry> stack =
                      c == 0 ? std::vector<LcpStackEntry>{{0, 0}}
                             : stacks_[c - 1];
                  EnumerateSuffixTreeNodeRange(
                      lcp, suffix_len, begin(c), end(c), stack,
                      [&](const SuffixTreeNode& node) { emit(c, node); });
                });
  }

 private:
  index_t m_;
  std::vector<index_t> boundaries_;  ///< begin() of chunks 1 .. size()-1.
  std::vector<std::vector<LcpStackEntry>> stacks_;  ///< Entering stacks.
};

/// Convenience: collects the enumeration into a vector.
template <typename SuffixLengths>
std::vector<SuffixTreeNode> CollectSuffixTreeNodes(
    const std::vector<index_t>& lcp, const SuffixLengths& suffix_len) {
  std::vector<SuffixTreeNode> nodes;
  nodes.reserve(2 * suffix_len.size());
  EnumerateSuffixTreeNodes(lcp, suffix_len, [&](const SuffixTreeNode& node) {
    nodes.push_back(node);
  });
  return nodes;
}

}  // namespace usi

#endif  // USI_SUFFIX_ESA_HPP_
