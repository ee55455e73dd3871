#ifndef USI_TOPK_TOPK_TYPES_HPP_
#define USI_TOPK_TOPK_TYPES_HPP_

/// \file topk_types.hpp
/// Common representation of mined top-K frequent substrings (TOP-K-SUB,
/// Problem 1).

#include <vector>

#include "usi/util/common.hpp"

namespace usi {

/// One mined substring. Exact miners (Section V) report it as the paper's
/// triplet <lcp, lb, rb> — an SA interval — plus a witness; approximate
/// miners (Sections VI, VII) report only a witness occurrence and an
/// estimated frequency (a lower bound on the truth for Approximate-Top-K).
struct TopKSubstring {
  index_t length = 0;            ///< Substring length (the paper's lcp).
  index_t frequency = 0;         ///< Exact or estimated occurrence count.
  index_t witness = 0;           ///< One occurrence start position in S.
  index_t lb = kInvalidIndex;    ///< SA interval left end (exact miners only).
  index_t rb = kInvalidIndex;    ///< SA interval right end (exact miners only).

  /// Whether the SA interval is populated.
  bool HasInterval() const { return lb != kInvalidIndex; }
};

/// A mined list, as consumed by the USI index builder. Items from an exact
/// miner carry their SA interval (TopKSubstring::HasInterval).
struct TopKList {
  std::vector<TopKSubstring> items;
};

}  // namespace usi

#endif  // USI_TOPK_TOPK_TYPES_HPP_
