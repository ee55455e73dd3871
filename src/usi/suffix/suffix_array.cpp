#include "usi/suffix/suffix_array.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "usi/util/mapped_file.hpp"

namespace usi {
namespace {

constexpr u32 kEmpty = ~u32{0};

// ---------------------------------------------------------------------------
// Workspace arena.
//
// Every recursion level needs type bits, bucket cursors and LMS scratch whose
// sizes halve level over level. A slab arena with stack-discipline rewind
// serves all of them: blocks never move (slabs are only appended, never
// reallocated), a level releases everything it took with one Rewind, and a
// deeper level reuses the space a shallower level just vacated — so levels
// below 0 run allocation-free once the slabs are warm. Slabs are anonymous
// mappings, unmapped with the workspace: level 0 alone takes ~4n bytes, and
// from the heap a build lane's arena would keep them resident afterwards.
// ---------------------------------------------------------------------------

class SaIsWorkspace {
 public:
  struct Mark {
    std::size_t slab;
    std::size_t used;
  };

  Mark Snapshot() const { return {slab_, used_}; }
  void Rewind(const Mark& mark) {
    slab_ = mark.slab;
    used_ = mark.used;
  }

  u64* AllocU64(std::size_t count) {
    while (true) {
      if (slab_ < slabs_.size()) {
        MappedFile& slab = *slabs_[slab_];
        if (slab.size() / sizeof(u64) - used_ >= count) {
          u64* block = reinterpret_cast<u64*>(slab.mutable_data()) + used_;
          used_ += count;
          return block;
        }
        ++slab_;
        used_ = 0;
        continue;
      }
      // Geometric slab growth keeps the number of slabs logarithmic; the
      // outer vector only moves the slab handles, never the slab storage
      // itself, so previously returned pointers stay valid.
      const std::size_t grown =
          slabs_.empty() ? std::size_t{1024}
                         : 2 * slabs_.back()->size() / sizeof(u64);
      slabs_.push_back(
          MappedFile::CreateOwned(std::max(count, grown) * sizeof(u64)));
    }
  }

  /// u32 blocks are carved out of the u64 slabs (alignment is trivially
  /// satisfied); one pool serves both widths.
  u32* AllocU32(std::size_t count) {
    return reinterpret_cast<u32*>(AllocU64((count + 1) / 2));
  }

 private:
  std::vector<std::unique_ptr<MappedFile>> slabs_;
  std::size_t slab_ = 0;
  std::size_t used_ = 0;
};

// ---------------------------------------------------------------------------
// Word-packed S/L type bits. Bit i is 1 iff suffix i is S-type; bit n (the
// virtual sentinel) is always 1. Tested inline during induction — no
// std::vector<bool> proxy objects on the hot path.
// ---------------------------------------------------------------------------

inline bool TypeIsS(const u64* bits, u32 i) {
  return (bits[i >> 6] >> (i & 63)) & 1;
}

inline void TypeSetS(u64* bits, u32 i) { bits[i >> 6] |= u64{1} << (i & 63); }

inline bool IsLmsAt(const u64* bits, u32 i) {
  // i >= 1 always (position 0 has no predecessor, the sentinel is pinned).
  return TypeIsS(bits, i) && !TypeIsS(bits, i - 1);
}

// ---------------------------------------------------------------------------
// Classification.
// ---------------------------------------------------------------------------

/// One fused backward pass: classifies every suffix (word-packed bits),
/// counts symbol occurrences into \p count, and gathers the LMS positions
/// in *descending* text order into \p lms_rev (caller reverses). Returns
/// the number of LMS positions.
template <typename SymT>
u32 ClassifySuffixes(const SymT* s, u32 n, u64* types, u32* count,
                     u32* lms_rev) {
  TypeSetS(types, n);  // Virtual sentinel is S-type.
  // Position n-1 precedes the sentinel, so it is always L-type.
  ++count[s[n - 1]];
  bool next_s = false;
  SymT next_sym = s[n - 1];
  u32 m = 0;
  // S-bits accumulate in a register and flush once per 64 positions (the
  // backward scan leaves a word exactly when i hits its lowest bit index),
  // instead of a read-modify-write per S-type suffix.
  u64 word = 0;
  for (u32 i = n - 1; i-- > 0;) {
    const SymT c = s[i];
    ++count[c];
    const bool cur_s = c < next_sym || (c == next_sym && next_s);
    if (cur_s) {
      word |= u64{1} << (i & 63);
    } else if (next_s) {
      lms_rev[m++] = i + 1;  // i is L, i+1 is S: i+1 is an LMS position.
    }
    if ((i & 63) == 0) {
      types[i >> 6] |= word;
      word = 0;
    }
    next_s = cur_s;
    next_sym = c;
  }
  return m;
}

// ---------------------------------------------------------------------------
// Induced sort.
// ---------------------------------------------------------------------------

/// Seeds \p seeds at their bucket tails (right to left), then induces L-type
/// suffixes left-to-right from bucket heads and S-type suffixes
/// right-to-left from bucket tails. \p bucket_start is the immutable
/// exclusive prefix-sum layout (sigma + 1 entries); \p bucket_work (sigma
/// entries) is repaired between phases by copying the needed half out of it
/// — one memcpy each instead of the three prefix-sum walks per induce the
/// textbook version pays.
///
/// \p sa has n + 1 slots; slot 0 is pinned to the virtual sentinel suffix n
/// (lexicographically smallest), and the real suffixes occupy sa[1..n].
template <typename SymT>
void InduceSa(const SymT* s, u32 n, const u64* types, const u32* bucket_start,
              u32 sigma, u32* bucket_work, const u32* seeds, u32 m, u32* sa) {
  u32* body = sa + 1;
  std::fill(body, body + n, kEmpty);
  sa[0] = n;

  // Seed phase: bucket tails, walked right to left so that already-sorted
  // seeds land in ascending order within each bucket.
  std::memcpy(bucket_work, bucket_start + 1, sigma * sizeof(u32));
  for (u32 k = m; k-- > 0;) {
    const u32 pos = seeds[k];
    body[--bucket_work[s[pos]]] = pos;
  }

  // L phase: bucket heads. The virtual sentinel induces n-1 first (always
  // L-type: it precedes the smallest suffix). The predecessor index
  // pos - 1 wraps to >= n for both sentinel values (kEmpty and 0), so one
  // unsigned compare replaces the two explicit checks.
  std::memcpy(bucket_work, bucket_start, sigma * sizeof(u32));
  body[bucket_work[s[n - 1]]++] = n - 1;
  for (u32 k = 0; k < n; ++k) {
    const u32 prev = body[k] - 1;
    if (prev < n && !TypeIsS(types, prev)) {
      body[bucket_work[s[prev]]++] = prev;
    }
  }

  // S phase: bucket tails again.
  std::memcpy(bucket_work, bucket_start + 1, sigma * sizeof(u32));
  for (u32 k = n; k-- > 0;) {
    const u32 prev = body[k] - 1;
    if (prev < n && TypeIsS(types, prev)) {
      body[--bucket_work[s[prev]]] = prev;
    }
  }
}

// ---------------------------------------------------------------------------
// One SA-IS recursion level.
//
// Works over \p s (u8 at level 0 — the raw text, never widened — and u32 at
// the recursion levels) with a *virtual* sentinel at index n: nothing is
// copied or shifted, the sentinel suffix is pinned at sa[0] and its single
// L-induction is done explicitly. \p sa must have n + 1 slots. The reduced
// problem and its suffix array live inside the sa buffer itself (the
// classic SA-IS packing: reduced string in the top m slots, reduced SA in
// the bottom m + 1), so recursion adds no O(n) buffers beyond the arena.
// ---------------------------------------------------------------------------

template <typename SymT>
void SaIsLevel(const SymT* s, u32 n, u32 sigma, u32* sa, SaIsWorkspace& ws) {
  USI_DCHECK(n >= 1);
  const SaIsWorkspace::Mark level_mark = ws.Snapshot();

  // --- Classify + count + gather LMS ------------------------------------
  const std::size_t type_words = (static_cast<std::size_t>(n) >> 6) + 1;
  u64* types = ws.AllocU64(type_words);
  std::memset(types, 0, type_words * sizeof(u64));

  // buckets[0 .. sigma] becomes the immutable exclusive prefix sum
  // bucket_start; buckets[sigma + 1 .. 2 * sigma] is the working cursor
  // array InduceSa repairs by memcpy.
  u32* buckets = ws.AllocU32(2 * static_cast<std::size_t>(sigma) + 1);
  u32* bucket_start = buckets;
  u32* bucket_work = buckets + sigma + 1;
  std::memset(bucket_start, 0, (sigma + 1) * sizeof(u32));
  u32* count = bucket_start + 1;  // Counting shifted by one symbol, so the
                                  // in-place inclusive scan below yields the
                                  // exclusive prefix sums directly.

  u32* lms = ws.AllocU32(n / 2 + 1);
  const u32 m = ClassifySuffixes(s, n, types, count, lms);
  std::reverse(lms, lms + m);
  USI_DCHECK(2 * static_cast<std::size_t>(m) <= n);
  for (u32 c = 0; c < sigma; ++c) bucket_start[c + 1] += bucket_start[c];
  USI_DCHECK(bucket_start[sigma] == n);

  // --- First induce: sorts the LMS *substrings* --------------------------
  InduceSa(s, n, types, bucket_start, sigma, bucket_work, lms, m, sa);
  if (m == 0) {
    // No LMS positions (e.g. a non-increasing text): the L/S induction from
    // the sentinel alone already produced the full suffix array.
    ws.Rewind(level_mark);
    return;
  }

  // --- Name LMS substrings in induced order ------------------------------
  const SaIsWorkspace::Mark naming_mark = ws.Snapshot();
  u32* body = sa + 1;
  u32* lms_order = ws.AllocU32(m);
  {
    u32 found = 0;
    for (u32 k = 0; k < n && found < m; ++k) {
      const u32 pos = body[k];
      if (pos != 0 && IsLmsAt(types, pos)) lms_order[found++] = pos;
    }
    USI_DCHECK(found == m);
  }
  // Adjacent LMS positions are >= 2 apart, so pos >> 1 indexes names
  // injectively in half the space.
  u32* names = ws.AllocU32(static_cast<std::size_t>(n + 1) / 2);
  u32 next_name = 0;
  {
    u32 prev = kEmpty;
    for (u32 j = 0; j < m; ++j) {
      const u32 pos = lms_order[j];
      if (prev != kEmpty) {
        bool equal = true;
        for (u32 d = 0;; ++d) {
          const u32 a = prev + d;
          const u32 b = pos + d;
          if (a == n || b == n) {
            // Only one LMS substring can run into the sentinel; they differ.
            equal = false;
            break;
          }
          const bool a_lms = d > 0 && IsLmsAt(types, a);
          const bool b_lms = d > 0 && IsLmsAt(types, b);
          if (s[a] != s[b] || a_lms != b_lms) {
            equal = false;
            break;
          }
          if (a_lms) break;  // Both substrings ended together: equal.
        }
        if (!equal) ++next_name;
      }
      names[pos >> 1] = next_name;
      prev = pos;
    }
  }
  const u32 num_names = next_name + 1;

  // --- Order LMS suffixes, recursing while names repeat -------------------
  const u32* sorted_lms;
  if (num_names < m) {
    // Reduced string packed into the top m slots of sa; its SA into the
    // bottom m + 1 (2m + 1 <= n + 1 always, since m <= n / 2).
    u32* reduced = sa + (n + 1 - m);
    for (u32 j = 0; j < m; ++j) reduced[j] = names[lms[j] >> 1];
    ws.Rewind(naming_mark);  // lms_order + names feed the deeper level.
    SaIsLevel<u32>(reduced, m, num_names, sa, ws);
    u32* mapped = ws.AllocU32(m);
    for (u32 j = 0; j < m; ++j) mapped[j] = lms[sa[1 + j]];
    sorted_lms = mapped;
  } else {
    // All names distinct: the induced order is already the suffix order.
    sorted_lms = lms_order;
  }

  // --- Final induce from sorted LMS suffixes ------------------------------
  InduceSa(s, n, types, bucket_start, sigma, bucket_work, sorted_lms, m, sa);
  ws.Rewind(level_mark);
}

}  // namespace

std::vector<index_t> BuildSuffixArray(const Text& text) {
  std::vector<index_t> sa(text.size() + 1);
  BuildSuffixArrayAt(text, sa.data());
  sa.erase(sa.begin());  // Drop the virtual sentinel suffix.
  return sa;
}

void BuildSuffixArrayAt(const Text& text, index_t* sa) {
  const std::size_t n = text.size();
  if (n == 0) return;
  SaIsWorkspace workspace;
  SaIsLevel<Symbol>(text.data(), static_cast<u32>(n), 256, sa, workspace);
  USI_DCHECK(sa[0] == n);
}

namespace {

/// The seed's textbook SA-IS core, preserved verbatim: u32-widened input,
/// std::vector<bool> type bits re-read in every induction step, three
/// prefix-sum bucket walks per induce, fresh allocations at every recursion
/// level. It is the baseline bench_buildpath measures BuildSuffixArray
/// against and a second oracle for the differential tests.
void SaIsReference(const std::vector<u32>& s, u32 sigma,
                   std::vector<u32>* sa) {
  const std::size_t n = s.size();
  sa->assign(n, kEmpty);
  if (n == 1) {
    (*sa)[0] = 0;
    return;
  }

  // Classify suffixes: S-type (true) iff s[i..] < s[i+1..].
  std::vector<bool> is_s(n);
  is_s[n - 1] = true;
  for (std::size_t i = n - 1; i-- > 0;) {
    is_s[i] = s[i] < s[i + 1] || (s[i] == s[i + 1] && is_s[i + 1]);
  }
  auto is_lms = [&](std::size_t i) { return i > 0 && is_s[i] && !is_s[i - 1]; };

  // Bucket boundaries by symbol.
  std::vector<u32> bucket_sizes(sigma, 0);
  for (u32 c : s) ++bucket_sizes[c];
  std::vector<u32> bucket_heads(sigma), bucket_tails(sigma);
  auto reset_buckets = [&]() {
    u32 offset = 0;
    for (u32 c = 0; c < sigma; ++c) {
      bucket_heads[c] = offset;
      offset += bucket_sizes[c];
      bucket_tails[c] = offset;  // one past the end
    }
  };

  // Induced sort: seed positions (LMS or sorted LMS), then induce L from the
  // left and S from the right.
  auto induce = [&](const std::vector<u32>& seeds) {
    std::fill(sa->begin(), sa->end(), kEmpty);
    reset_buckets();
    for (std::size_t k = seeds.size(); k-- > 0;) {
      const u32 pos = seeds[k];
      (*sa)[--bucket_tails[s[pos]]] = pos;
    }
    reset_buckets();
    for (std::size_t k = 0; k < n; ++k) {
      const u32 pos = (*sa)[k];
      if (pos != kEmpty && pos > 0 && !is_s[pos - 1]) {
        (*sa)[bucket_heads[s[pos - 1]]++] = pos - 1;
      }
    }
    reset_buckets();
    for (std::size_t k = n; k-- > 0;) {
      const u32 pos = (*sa)[k];
      if (pos != kEmpty && pos > 0 && is_s[pos - 1]) {
        (*sa)[--bucket_tails[s[pos - 1]]] = pos - 1;
      }
    }
  };

  // First pass: induce from unsorted LMS positions.
  std::vector<u32> lms_positions;
  for (std::size_t i = 1; i < n; ++i) {
    if (is_lms(i)) lms_positions.push_back(static_cast<u32>(i));
  }
  induce(lms_positions);

  // Name LMS substrings in the order they appear in the induced SA.
  std::vector<u32> lms_order;
  lms_order.reserve(lms_positions.size());
  for (std::size_t k = 0; k < n; ++k) {
    const u32 pos = (*sa)[k];
    if (pos != kEmpty && is_lms(pos)) lms_order.push_back(pos);
  }
  std::vector<u32> names(n, kEmpty);
  u32 next_name = 0;
  u32 prev = kEmpty;
  for (u32 pos : lms_order) {
    if (prev != kEmpty) {
      // Compare LMS substrings at prev and pos.
      bool equal = true;
      for (std::size_t d = 0;; ++d) {
        const bool prev_lms = d > 0 && is_lms(prev + d);
        const bool pos_lms = d > 0 && is_lms(pos + d);
        if (s[prev + d] != s[pos + d] || prev_lms != pos_lms) {
          equal = false;
          break;
        }
        if (prev_lms && pos_lms) break;
      }
      if (!equal) ++next_name;
    }
    names[pos] = next_name;
    prev = pos;
  }
  const u32 num_names = lms_order.empty() ? 0 : next_name + 1;

  // Order LMS suffixes, recursing when names repeat.
  std::vector<u32> sorted_lms;
  if (num_names < lms_positions.size()) {
    std::vector<u32> reduced;
    reduced.reserve(lms_positions.size());
    for (u32 pos : lms_positions) reduced.push_back(names[pos]);
    std::vector<u32> reduced_sa;
    SaIsReference(reduced, num_names, &reduced_sa);
    sorted_lms.reserve(lms_positions.size());
    for (u32 r : reduced_sa) sorted_lms.push_back(lms_positions[r]);
  } else {
    sorted_lms = lms_order;
  }
  induce(sorted_lms);
}

}  // namespace

std::vector<index_t> BuildSuffixArrayReference(const Text& text) {
  const std::size_t n = text.size();
  std::vector<index_t> sa(n);
  if (n == 0) return sa;
  // Shift symbols by one and append the unique smallest sentinel 0.
  std::vector<u32> s(n + 1);
  u32 max_symbol = 0;
  for (std::size_t i = 0; i < n; ++i) {
    s[i] = static_cast<u32>(text[i]) + 1;
    max_symbol = std::max(max_symbol, s[i]);
  }
  s[n] = 0;
  std::vector<u32> full_sa;
  SaIsReference(s, max_symbol + 1, &full_sa);
  // full_sa[0] is the sentinel suffix; drop it.
  USI_DCHECK(full_sa[0] == n);
  for (std::size_t i = 0; i < n; ++i) sa[i] = full_sa[i + 1];
  return sa;
}

std::vector<index_t> BuildSuffixArrayDoubling(const Text& text) {
  const std::size_t n = text.size();
  std::vector<index_t> sa(n);
  std::iota(sa.begin(), sa.end(), 0);
  if (n == 0) return sa;
  std::vector<i64> rank(n), next_rank(n);
  for (std::size_t i = 0; i < n; ++i) rank[i] = text[i];
  for (std::size_t k = 1;; k <<= 1) {
    auto pair_of = [&](index_t i) {
      const i64 second = (i + k < n) ? rank[i + k] : -1;
      return std::pair<i64, i64>(rank[i], second);
    };
    std::sort(sa.begin(), sa.end(), [&](index_t a, index_t b) {
      return pair_of(a) < pair_of(b);
    });
    next_rank[sa[0]] = 0;
    for (std::size_t i = 1; i < n; ++i) {
      next_rank[sa[i]] =
          next_rank[sa[i - 1]] + (pair_of(sa[i - 1]) < pair_of(sa[i]) ? 1 : 0);
    }
    rank.swap(next_rank);
    if (rank[sa[n - 1]] == static_cast<i64>(n - 1)) break;
  }
  return sa;
}

}  // namespace usi
