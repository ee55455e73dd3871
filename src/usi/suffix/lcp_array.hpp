#ifndef USI_SUFFIX_LCP_ARRAY_HPP_
#define USI_SUFFIX_LCP_ARRAY_HPP_

/// \file lcp_array.hpp
/// LCP-array construction (Kasai et al. [30], as cited in Section III).
///
/// LCP[0] = 0 and LCP[j] = |longest common prefix of suffixes SA[j-1] and
/// SA[j]| for j > 0 — the exact convention of the paper.

#include <span>
#include <vector>

#include "usi/text/alphabet.hpp"
#include "usi/util/common.hpp"

namespace usi {

class ThreadPool;

/// Builds the LCP array from \p text and its suffix array in O(n).
///
/// With a pool, text positions are split into contiguous chunks scanned in
/// parallel. Kasai's carried h is only a lower bound on the next LCP value
/// (every entry is still verified by direct comparison), so restarting each
/// chunk at h = 0 yields byte-identical output to the sequential scan; each
/// chunk merely pays one cold re-match at its first position.
std::vector<index_t> BuildLcpArray(const Text& text,
                                   std::span<const index_t> sa,
                                   ThreadPool* pool = nullptr);

/// As above, into \p lcp (n slots), with \p rank (at least n slots) as
/// scratch for the inverse suffix array.
void BuildLcpArray(const Text& text, std::span<const index_t> sa,
                   std::span<index_t> rank, std::span<index_t> lcp,
                   ThreadPool* pool = nullptr);

}  // namespace usi

#endif  // USI_SUFFIX_LCP_ARRAY_HPP_
