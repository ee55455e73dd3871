#include "usi/topk/approximate_topk.hpp"

#include <algorithm>
#include <memory>

#include "usi/hash/karp_rabin.hpp"
#include "usi/suffix/esa.hpp"
#include "usi/suffix/lce.hpp"
#include "usi/suffix/sparse_suffix_array.hpp"
#include "usi/util/radix_sort.hpp"

namespace usi {
namespace {

std::unique_ptr<LceOracle> MakeLceOracle(const Text& text,
                                         const KarpRabinHasher& hasher,
                                         const ApproximateTopKOptions& options) {
  switch (options.lce_backend) {
    case LceBackendKind::kSampledKr: {
      const index_t rate = options.lce_sample_rate > 0
                               ? options.lce_sample_rate
                               : std::max<index_t>(1, options.rounds);
      return std::make_unique<SampledKrLce>(text, hasher, rate);
    }
    case LceBackendKind::kFullKr:
      return std::make_unique<KrLce>(text, hasher);
    case LceBackendKind::kRmq:
      return std::make_unique<RmqLce>(text);
    case LceBackendKind::kNaive:
      return std::make_unique<NaiveLce>(text);
  }
  return nullptr;
}

/// Mines the top-k substrings of one sampled round (Section VI, Step 3):
/// bottom-up traversal of the sparse index, radix sort of the resulting
/// nodes by sampled frequency, then listing.
std::vector<TopKSubstring> MineRound(const SparseSuffixIndex& sparse,
                                     index_t n, u64 k) {
  const std::size_t m = sparse.positions.size();
  std::vector<index_t> suffix_len(m);
  for (std::size_t i = 0; i < m; ++i) {
    suffix_len[i] = n - sparse.positions[i];
  }
  std::vector<SuffixTreeNode> nodes = CollectSuffixTreeNodes(sparse.lcp, suffix_len);
  // Sort by (sampled frequency desc, depth asc); frequencies <= m.
  const u64 stride = static_cast<u64>(n) + 1;
  RadixSortByKey(&nodes, stride * stride, [&](const SuffixTreeNode& node) {
    return (stride - 1 - node.frequency()) * stride + node.depth;
  });
  std::vector<TopKSubstring> mined;
  mined.reserve(std::min<u64>(k, 2 * m));
  for (const SuffixTreeNode& node : nodes) {
    if (mined.size() >= k) break;
    for (index_t len = node.parent_depth + 1;
         len <= node.depth && mined.size() < k; ++len) {
      mined.push_back(TopKSubstring{len, node.frequency(),
                                    sparse.positions[node.lb], kInvalidIndex,
                                    kInvalidIndex});
    }
  }
  return mined;
}

/// Merges the running list with a round's list (Section VI, Step 4):
/// lexicographic sort of the concatenation via LCE comparisons, frequency
/// summation of duplicates, then re-sort by frequency and truncation to k.
std::vector<TopKSubstring> MergeLists(std::vector<TopKSubstring> merged,
                                      const LceOracle& lce, u64 k) {
  std::sort(merged.begin(), merged.end(),
            [&](const TopKSubstring& a, const TopKSubstring& b) {
              return lce.CompareFragments(a.witness, a.length, b.witness,
                                          b.length) < 0;
            });
  std::vector<TopKSubstring> combined;
  combined.reserve(merged.size());
  for (const TopKSubstring& item : merged) {
    if (!combined.empty() && combined.back().length == item.length &&
        lce.CompareFragments(combined.back().witness, combined.back().length,
                             item.witness, item.length) == 0) {
      combined.back().frequency += item.frequency;
    } else {
      combined.push_back(item);
    }
  }
  // Keep the k most frequent (ties shorter-first, mirroring Exact-Top-K).
  std::sort(combined.begin(), combined.end(),
            [](const TopKSubstring& a, const TopKSubstring& b) {
              if (a.frequency != b.frequency) return a.frequency > b.frequency;
              return a.length < b.length;
            });
  if (combined.size() > k) combined.resize(k);
  return combined;
}

}  // namespace

TopKList ApproximateTopK(const Text& text, u64 k,
                         const ApproximateTopKOptions& options) {
  TopKList result;
  const index_t n = static_cast<index_t>(text.size());
  if (n == 0 || k == 0) return result;
  const u32 s = std::max<u32>(1, options.rounds);

  KarpRabinHasher hasher(options.seed);
  const std::unique_ptr<LceOracle> lce = MakeLceOracle(text, hasher, options);
  const u64 pool = k * std::max<u64>(1, options.oversample);

  std::vector<TopKSubstring> running;
  for (u32 round = 0; round < s && round < n; ++round) {
    // Step 1: sample positions round, round + s, round + 2s, ...
    std::vector<index_t> positions;
    positions.reserve(n / s + 1);
    for (index_t p = round; p < n; p += s) positions.push_back(p);
    // Step 2: sparse suffix array + sparse LCP over the sample.
    const SparseSuffixIndex sparse =
        BuildSparseSuffixIndex(std::move(positions), *lce);
    // Step 3: top candidates of the sample (oversampled; see options).
    std::vector<TopKSubstring> mined = MineRound(sparse, n, pool);
    // Step 4: merge into the running estimate.
    if (running.empty()) {
      running = std::move(mined);
    } else {
      running.reserve(running.size() + mined.size());
      running.insert(running.end(), mined.begin(), mined.end());
      running = MergeLists(std::move(running), *lce, pool);
    }
  }
  if (running.size() > k) running.resize(k);
  result.items = std::move(running);
  return result;
}

}  // namespace usi
