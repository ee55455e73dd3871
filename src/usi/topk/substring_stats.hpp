#ifndef USI_TOPK_SUBSTRING_STATS_HPP_
#define USI_TOPK_SUBSTRING_STATS_HPP_

/// \file substring_stats.hpp
/// The linear-space data structure of Section V.
///
/// Holds the suffix-tree node table T (sorted by frequency desc, string
/// depth asc) and the parallel prefix arrays Q (cumulative number of distinct
/// substrings) and L (cumulative number of distinct lengths). It serves the
/// three tasks of Section V:
///   (i)  Exact-Top-K: list the top-K frequent substrings as <length, lb, rb>
///        triplets in O(n + K) (Theorem 2);
///   (ii) given K, report tau_K and L_K (query/construction-time tuning) in
///        O(log n);
///   (iii) given tau, report K_tau and L_tau (size tuning) in O(log n).
///
/// This is the tuning structure: T holds every node (~2n triplets, radix
/// sorted through a scratch copy), which tasks (ii) and (iii) need. The
/// index build only mines one K and runs ExactTopK (exact_topk.hpp)
/// instead, which keeps the nodes at or above tau_K and nothing else; its
/// output equals TopK here item for item. The LCP array lives only while T
/// is built; the structure keeps the suffix array for TopK's witnesses.

#include <vector>

#include "usi/suffix/esa.hpp"
#include "usi/text/alphabet.hpp"
#include "usi/topk/topk_types.hpp"
#include "usi/util/common.hpp"

namespace usi {

class ThreadPool;

/// Section V data structure (T, Q, L + the suffix array view).
class SubstringStats {
 public:
  /// Builds SA, LCP, enumerates suffix-tree nodes and radix sorts them.
  /// O(n) time, O(n) space.
  explicit SubstringStats(const Text& text);

  /// Adopts a suffix array already built for \p text, then derives LCP and
  /// the T/Q/L tables as above. With \p pool, both the LCP scan (chunked
  /// Kasai) and the suffix-tree node enumeration (EsaChunks) run on the
  /// pool; T is order-identical for every pool width.
  SubstringStats(const Text& text, std::vector<index_t> sa,
                 ThreadPool* pool = nullptr);

  /// Task (ii): tuning parameters implied by a choice of K.
  struct KTuning {
    index_t tau;          ///< tau_K: min frequency among the top-K substrings.
    index_t num_lengths;  ///< L_K: distinct lengths among them.
  };
  KTuning EstimateForK(u64 k) const;

  /// Task (iii): tuning parameters implied by a choice of tau.
  struct TauTuning {
    u64 num_substrings;   ///< K_tau: number of tau-frequent substrings.
    index_t num_lengths;  ///< L_tau.
  };
  TauTuning EstimateForTau(index_t tau) const;

  /// Task (i): the top-K frequent substrings with exact frequencies and SA
  /// intervals, most frequent first, ties broken shorter-first.
  TopKList TopK(u64 k) const;

  /// One point of the (tau, K, L) trade-off curve. Section X proposes
  /// enumerating these to choose the USI operating point (cf. the skyline
  /// operator [58]): tau drives the query-time bound O(m + tau), K the table
  /// size O(n + K), and L the paper's construction bound O(n * L) (the SA
  /// sweep of the index builder costs O(n + sum of occurrences) <= that).
  struct TradeOffPoint {
    index_t tau = 0;
    u64 k = 0;
    index_t num_lengths = 0;
  };

  /// The full trade-off curve: one point per distinct substring frequency,
  /// in decreasing tau order. O(n) time, at most n points.
  std::vector<TradeOffPoint> TradeOffCurve() const;

  /// The point with the largest K not exceeding \p max_table_entries — the
  /// best query-time bound achievable within a hash-table budget. Returns a
  /// zero point when even the smallest K overshoots.
  TradeOffPoint RecommendForBudget(u64 max_table_entries) const;

  /// Total number of distinct substrings of the text.
  u64 TotalDistinctSubstrings() const { return q_.empty() ? 0 : q_.back(); }

  /// Number of triplets in T (explicit suffix-tree nodes).
  std::size_t NodeCount() const { return t_.size(); }

  /// Heap footprint in bytes.
  std::size_t SizeInBytes() const;

 private:
  /// One row of T: a suffix-tree node with its frequency and edge interval
  /// of string depths (parent_depth, depth].
  struct Triplet {
    index_t frequency;
    index_t depth;
    index_t parent_depth;
    index_t lb;
    index_t rb;
  };

  /// Fills t_ with the suffix-tree node triplets of \p lcp — sequentially,
  /// or as a chunked traversal over \p pool (identical order either way).
  void EnumerateNodes(const std::vector<index_t>& lcp, ThreadPool* pool);

  index_t n_ = 0;
  std::vector<index_t> sa_;
  std::vector<Triplet> t_;
  std::vector<u64> q_;      ///< q_[i] = distinct substrings in t_[0..i].
  std::vector<index_t> l_;  ///< l_[i] = distinct lengths in t_[0..i].
};

}  // namespace usi

#endif  // USI_TOPK_SUBSTRING_STATS_HPP_
