#include "usi/topk/substring_stats.hpp"

#include <algorithm>

#include "usi/suffix/lcp_array.hpp"
#include "usi/suffix/suffix_array.hpp"
#include "usi/util/radix_sort.hpp"

namespace usi {

SubstringStats::SubstringStats(const Text& text)
    : SubstringStats(text, BuildSuffixArray(text)) {}

SubstringStats::SubstringStats(const Text& text, std::vector<index_t> sa,
                               ThreadPool* pool)
    : n_(static_cast<index_t>(text.size())), sa_(std::move(sa)) {
  USI_CHECK(sa_.size() == text.size());
  EnumerateNodes(BuildLcpArray(text, sa_, pool), pool);

  // Sort by (frequency desc, depth asc). Composite radix key: both components
  // are <= n, so key = (n - frequency) * (n + 1) + depth fits in 64 bits.
  const u64 stride = static_cast<u64>(n_) + 1;
  RadixSortByKey(&t_, stride * stride, [&](const Triplet& t) {
    return (stride - 1 - t.frequency) * stride + t.depth;
  });

  // Q: cumulative count of distinct substrings (q(v) = depth - parent_depth
  // per node). L: cumulative count of distinct lengths. Because an ancestor
  // always has strictly larger frequency than its descendants, every ancestor
  // of t_[i] appears before it, so the union of covered lengths over any
  // prefix of T is exactly [1 .. max depth seen] (DESIGN.md Section 5.2).
  q_.resize(t_.size());
  l_.resize(t_.size());
  u64 cumulative = 0;
  index_t max_depth = 0;
  for (std::size_t i = 0; i < t_.size(); ++i) {
    cumulative += t_[i].depth - t_[i].parent_depth;
    max_depth = std::max(max_depth, t_[i].depth);
    q_[i] = cumulative;
    l_[i] = max_depth;
  }
}

void SubstringStats::EnumerateNodes(const std::vector<index_t>& lcp,
                                    ThreadPool* pool) {
  // Chunked LCP-interval traversal (EsaChunks): per-chunk outputs
  // concatenated in chunk order are the sequential emission order, so t_ —
  // and everything sorted from it — is identical at every pool width.
  const EsaChunks chunks(lcp, pool);
  std::vector<std::vector<Triplet>> partial(chunks.size());
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    partial[c].reserve(2 * static_cast<std::size_t>(chunks.end(c) -
                                                    chunks.begin(c)));
  }
  chunks.Enumerate(lcp, DenseSuffixLengthView{&sa_, n_}, pool,
                   [&](std::size_t c, const SuffixTreeNode& node) {
                     partial[c].push_back(Triplet{node.frequency(), node.depth,
                                                  node.parent_depth, node.lb,
                                                  node.rb});
                   });
  if (partial.size() == 1) {
    t_ = std::move(partial.front());
    t_.shrink_to_fit();  // The 2n reserve over-provisions; drop the slack.
    return;
  }
  std::size_t total = 0;
  for (const std::vector<Triplet>& p : partial) total += p.size();
  t_.reserve(total);
  for (std::vector<Triplet>& p : partial) {
    t_.insert(t_.end(), p.begin(), p.end());
    std::vector<Triplet>().swap(p);  // Release as we go; halves the overlap.
  }
}

SubstringStats::KTuning SubstringStats::EstimateForK(u64 k) const {
  USI_CHECK(k >= 1);
  if (q_.empty()) return {0, 0};
  // Smallest index i with Q[i] >= k (Q is increasing).
  const auto it = std::lower_bound(q_.begin(), q_.end(), k);
  const std::size_t i =
      (it == q_.end()) ? q_.size() - 1 : static_cast<std::size_t>(it - q_.begin());
  return {t_[i].frequency, l_[i]};
}

SubstringStats::TauTuning SubstringStats::EstimateForTau(index_t tau) const {
  if (t_.empty() || t_.front().frequency < tau) return {0, 0};
  // Largest index i with t_[i].frequency >= tau (frequencies descending).
  std::size_t lo = 0;
  std::size_t hi = t_.size();  // First index with frequency < tau.
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (t_[mid].frequency >= tau) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const std::size_t i = lo - 1;
  return {q_[i], l_[i]};
}

TopKList SubstringStats::TopK(u64 k) const {
  TopKList result;
  result.items.reserve(std::min<u64>(k, TotalDistinctSubstrings()));
  for (const Triplet& t : t_) {
    if (result.items.size() >= k) break;
    for (index_t len = t.parent_depth + 1;
         len <= t.depth && result.items.size() < k; ++len) {
      result.items.push_back(
          TopKSubstring{len, t.frequency, sa_[t.lb], t.lb, t.rb});
    }
  }
  return result;
}

std::vector<SubstringStats::TradeOffPoint> SubstringStats::TradeOffCurve()
    const {
  std::vector<TradeOffPoint> curve;
  for (std::size_t i = 0; i < t_.size(); ++i) {
    // Emit one point at the last triplet of every distinct frequency.
    if (i + 1 == t_.size() || t_[i + 1].frequency != t_[i].frequency) {
      curve.push_back({t_[i].frequency, q_[i], l_[i]});
    }
  }
  return curve;
}

SubstringStats::TradeOffPoint SubstringStats::RecommendForBudget(
    u64 max_table_entries) const {
  const std::vector<TradeOffPoint> curve = TradeOffCurve();
  TradeOffPoint best;
  for (const TradeOffPoint& point : curve) {
    if (point.k <= max_table_entries) {
      best = point;  // K grows along the curve; keep the last fitting point.
    } else {
      break;
    }
  }
  return best;
}

std::size_t SubstringStats::SizeInBytes() const {
  return sa_.capacity() * sizeof(index_t) + t_.capacity() * sizeof(Triplet) +
         q_.capacity() * sizeof(u64) + l_.capacity() * sizeof(index_t);
}

}  // namespace usi
