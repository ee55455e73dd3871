#ifndef USI_SUFFIX_SUFFIX_ARRAY_HPP_
#define USI_SUFFIX_SUFFIX_ARRAY_HPP_

/// \file suffix_array.hpp
/// Suffix-array construction.
///
/// BuildSuffixArray is a cache-conscious SA-IS (Nong, Zhang & Chan): O(n)
/// time over integer alphabets, the role the paper assigns to Farach's
/// algorithm [16]. The implementation specializes level 0 to the raw byte
/// text (no u32 widening), keeps the S/L type classification word-packed,
/// fuses classification with bucket counting, repairs bucket cursors by
/// copying from an immutable prefix-sum array instead of recomputing it, and
/// threads one reusable slab arena through the recursion so levels below 0
/// perform near-zero heap allocations. It runs on the calling thread: its
/// passes are bound by memory, and chunking the level-0 histogram and LMS
/// gather over a pool measured slower than one thread.
///
/// BuildSuffixArrayReference is the seed's textbook SA-IS, kept verbatim as
/// the differential-test oracle and as the baseline the bench_buildpath
/// "seed vs new" comparison measures against. BuildSuffixArrayDoubling is
/// the O(n log^2 n) prefix-doubling algorithm of Manber & Myers [17]; it is
/// an independently-derived oracle for the property tests and an ablation
/// subject.

#include <vector>

#include "usi/text/alphabet.hpp"
#include "usi/util/common.hpp"

namespace usi {

/// Builds the suffix array of \p text in O(n) (SA-IS). SA[i] is the starting
/// position of the i-th lexicographically smallest suffix; the empty suffix
/// is not included, so the result has exactly text.size() entries.
std::vector<index_t> BuildSuffixArray(const Text& text);

/// As above, into sa[1 .. text.size()]; sa[0] is scratch for SA-IS's
/// virtual sentinel suffix.
void BuildSuffixArrayAt(const Text& text, index_t* sa);

/// The seed's textbook SA-IS (u32-widened input, std::vector<bool> type
/// bits, per-level allocations). Oracle + bench baseline only — use
/// BuildSuffixArray everywhere else.
std::vector<index_t> BuildSuffixArrayReference(const Text& text);

/// Prefix-doubling construction (O(n log^2 n)); test oracle / ablation.
std::vector<index_t> BuildSuffixArrayDoubling(const Text& text);

}  // namespace usi

#endif  // USI_SUFFIX_SUFFIX_ARRAY_HPP_
