#ifndef USI_CORE_DYNAMIC_USI_HPP_
#define USI_CORE_DYNAMIC_USI_HPP_

/// \file dynamic_usi.hpp
/// Append-only dynamic USI — the partial solution sketched in Section X.
///
/// State per the paper: an online (Ukkonen) suffix tree, the PSW array
/// extended one position per append, and a table of prefix fingerprints so
/// any fragment fingerprint is O(1). The hash table H caches global
/// utilities of a tracked substring set (initially the top-K of the seed
/// string).
///
/// Append(c, w): extends PSW, the fingerprint table, and the suffix tree.
/// Every *new* occurrence created by an append is a suffix of the new text
/// (frequencies grow monotonically, as Section X observes), so H stays exact
/// by probing, for each tracked length l, the fingerprint of the new
/// length-l suffix and folding in its local utility — O(L_K) per append.
///
/// What stays hard is membership maintenance: substrings can rise into the
/// true top-K as the text grows. Like the paper, we do not chase that
/// incrementally (it is the admitted "very costly" part); RefreshTopK()
/// recomputes the tracked set exactly on demand, and StalenessBound() tells
/// callers how far the tracked set may have drifted. Queries are exact
/// either way: misses fall back to the suffix tree + PSW.

#include <span>
#include <vector>

#include "usi/core/utility.hpp"
#include "usi/hash/fingerprint_table.hpp"
#include "usi/hash/karp_rabin.hpp"
#include "usi/suffix/suffix_tree.hpp"
#include "usi/text/weighted_string.hpp"

namespace usi {

/// Options for DynamicUsi.
struct DynamicUsiOptions {
  u64 k = 1024;  ///< Size of the tracked (precomputed) substring set.
  GlobalUtilityKind utility = GlobalUtilityKind::kSum;
  u64 hash_seed = 0xD1D1;
};

/// Append-only USI index.
class DynamicUsi {
 public:
  explicit DynamicUsi(const DynamicUsiOptions& options = {});

  /// Builds from a seed weighted string (appends every position).
  DynamicUsi(const WeightedString& seed, const DynamicUsiOptions& options = {});

  /// Appends letter \p c with utility \p w. O(L_K) table maintenance plus
  /// amortized-O(1) suffix-tree work.
  void Append(Symbol c, double w);

  /// Answers U(P) over the current text. Exact: hash hit (tracked set) in
  /// O(m), otherwise suffix-tree search + PSW aggregation.
  QueryResult Query(std::span<const Symbol> pattern) const;

  /// Recomputes the tracked top-K set from scratch (O(n) — the cost the
  /// paper defers; call at a cadence of your choosing).
  void RefreshTopK();

  /// Appends since the last RefreshTopK; bounds how much the true top-K can
  /// have drifted from the tracked set (each append changes frequencies of
  /// suffixes only).
  index_t StalenessBound() const { return appends_since_refresh_; }

  /// Current text length.
  index_t size() const { return static_cast<index_t>(text_.size()); }

  /// Current text.
  const Text& text() const { return text_; }

  /// Per-position utilities, parallel to text().
  const std::vector<double>& weights() const { return weights_; }

  /// Number of tracked substrings in H.
  std::size_t TrackedEntries() const { return table_.size(); }

  /// Heap footprint in bytes.
  std::size_t SizeInBytes() const;

 private:
  struct TableValue {
    UtilityAccumulator acc;
  };

  DynamicUsiOptions options_;
  Text text_;
  std::vector<double> weights_;
  PrefixSumWeights psw_;
  KarpRabinHasher hasher_;
  std::vector<u64> prefix_fps_;  ///< prefix_fps_[k] = fp(text[0..k)).
  SuffixTree tree_;  ///< Over text_, which it reads but does not copy.
  FingerprintTable<TableValue> table_;
  std::vector<index_t> tracked_lengths_;  ///< Distinct lengths in H, sorted.
  index_t appends_since_refresh_ = 0;
};

}  // namespace usi

#endif  // USI_CORE_DYNAMIC_USI_HPP_
