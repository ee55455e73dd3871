#ifndef USI_TOPK_EXACT_TOPK_HPP_
#define USI_TOPK_EXACT_TOPK_HPP_

/// \file exact_topk.hpp
/// Exact-Top-K (Section V, Theorem 2): TOP-K-SUB in O(n + K) time without
/// materializing the Section V node table.
///
/// Two bottom-up passes over the LCP array (esa.hpp). Pass 1 counts the
/// distinct substrings of every frequency, each count saturating at K, and
/// reads off tau_K, the K-th largest frequency. Pass 2 keeps only the M
/// nodes of frequency >= tau_K, and SubstringStats' stable radix sort by
/// (frequency desc, depth asc) orders them as it orders its node table, so
/// the result equals SubstringStats::TopK item for item, and the index
/// images built from it are byte-identical. The working set is the suffix
/// array, the LCP array, one count per frequency, and the M kept nodes with
/// the sort's scratch copy. At worst, when tau_K = 1 (K exceeds the number
/// of substrings that occur twice or more), every node is kept and M
/// reaches ~2n, the size of the node table.

#include <span>
#include <vector>

#include "usi/text/alphabet.hpp"
#include "usi/topk/topk_types.hpp"
#include "usi/util/common.hpp"

namespace usi {

class ThreadPool;

/// Returns the exact top-\p k frequent substrings of \p text with their SA
/// intervals over \p sa (the suffix array of \p text), most frequent first,
/// ties broken shorter-first. With \p pool, the LCP scan runs chunked on it
/// (Kasai); both passes stay sequential, so the output is the same at every
/// pool width.
TopKList ExactTopK(const Text& text, std::span<const index_t> sa, u64 k,
                   ThreadPool* pool = nullptr);

/// As above, building the suffix array first.
TopKList ExactTopK(const Text& text, u64 k);

}  // namespace usi

#endif  // USI_TOPK_EXACT_TOPK_HPP_
