#include "usi/topk/exact_topk.hpp"

#include <algorithm>
#include <limits>

#include "usi/suffix/esa.hpp"
#include "usi/suffix/lcp_array.hpp"
#include "usi/suffix/suffix_array.hpp"
#include "usi/util/mapped_file.hpp"
#include "usi/util/radix_sort.hpp"

namespace usi {
namespace {

/// Pass 1: tau_K, the largest tau such that at least \p k distinct
/// substrings occur >= tau times (1 when the text has fewer than k).
///
/// counts[f] holds the distinct substrings of frequency f, saturating at
/// min(k, 2^32 - 1). Scanning f downwards, every count passed before the
/// stop is exact, so the stop is tau_K; a count clipped at 2^32 - 1 < k can
/// only stop the scan lower, which keeps more nodes but changes no output.
/// \p counts (n + 1 slots) is scratch.
index_t FrequencyThreshold(std::span<const index_t> lcp,
                           const DenseSuffixLengthView& suffix_len, u64 k,
                           std::span<u32> counts) {
  const index_t n = static_cast<index_t>(suffix_len.size());
  const u64 cap = std::min<u64>(k, std::numeric_limits<u32>::max());
  std::fill(counts.begin(), counts.end(), 0);
  EnumerateSuffixTreeNodes(lcp, suffix_len, [&](const SuffixTreeNode& node) {
    u32& count = counts[node.frequency()];
    count = static_cast<u32>(std::min<u64>(cap, count + node.edge_length()));
  });

  u64 at_least = 0;  // Distinct substrings of frequency >= f.
  for (index_t f = n; f >= 1; --f) {
    at_least += counts[f];
    if (at_least >= k) return f;
  }
  return 1;
}

}  // namespace

TopKList ExactTopK(const Text& text, std::span<const index_t> sa, u64 k,
                   ThreadPool* pool) {
  USI_CHECK(sa.size() == text.size());
  TopKList result;
  const index_t n = static_cast<index_t>(text.size());
  if (n == 0 || k == 0) return result;

  // The LCP, and Kasai's rank array whose n + 1 words then hold the
  // frequency counts, each in its own mapping, unmapped when dropped: from
  // the heap, a build lane's arena would keep these 8n bytes resident.
  const auto words = [](std::unique_ptr<MappedFile>& bytes, std::size_t size) {
    bytes = MappedFile::CreateOwned(size * sizeof(index_t));
    return std::span(reinterpret_cast<index_t*>(bytes->mutable_data()), size);
  };
  std::unique_ptr<MappedFile> lcp_bytes, counts_bytes;
  const std::span<index_t> lcp = words(lcp_bytes, n);
  const std::span<index_t> counts = words(counts_bytes, std::size_t{n} + 1);
  BuildLcpArray(text, sa, counts, lcp, pool);
  const DenseSuffixLengthView suffix_len{sa, n};
  const index_t tau = FrequencyThreshold(lcp, suffix_len, k, counts);
  counts_bytes.reset();  // Pass 2's nodes may reuse the pages.

  // Pass 2: the nodes at or above tau_K, in emission order.
  std::vector<SuffixTreeNode> kept;
  EnumerateSuffixTreeNodes(lcp, suffix_len, [&](const SuffixTreeNode& node) {
    if (node.frequency() >= tau) kept.push_back(node);
  });

  // SubstringStats' radix sort, by its key, over a subsequence of its
  // input: the kept nodes sort to a prefix of its node table, so the first
  // k substrings below are TopK's.
  const u64 stride = static_cast<u64>(n) + 1;
  RadixSortByKey(&kept, stride * stride, [&](const SuffixTreeNode& node) {
    return (stride - 1 - node.frequency()) * stride + node.depth;
  });

  u64 available = 0;
  for (const SuffixTreeNode& node : kept) available += node.edge_length();
  result.items.reserve(std::min(k, available));
  for (const SuffixTreeNode& node : kept) {
    if (result.items.size() >= k) break;
    for (index_t len = node.parent_depth + 1;
         len <= node.depth && result.items.size() < k; ++len) {
      result.items.push_back(TopKSubstring{len, node.frequency(), sa[node.lb],
                                           node.lb, node.rb});
    }
  }
  return result;
}

TopKList ExactTopK(const Text& text, u64 k) {
  return ExactTopK(text, BuildSuffixArray(text), k);
}

}  // namespace usi
