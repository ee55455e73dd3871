#include "usi/core/dynamic_usi.hpp"

#include <algorithm>

#include "usi/suffix/suffix_array.hpp"
#include "usi/topk/exact_topk.hpp"

namespace usi {

DynamicUsi::DynamicUsi(const DynamicUsiOptions& options)
    : options_(options), hasher_(options.hash_seed), table_(options.k) {
  prefix_fps_.push_back(0);
}

DynamicUsi::DynamicUsi(const WeightedString& seed,
                       const DynamicUsiOptions& options)
    : DynamicUsi(options) {
  for (index_t i = 0; i < seed.size(); ++i) {
    Append(seed.letter(i), seed.weight(i));
  }
  RefreshTopK();
}

void DynamicUsi::Append(Symbol c, double w) {
  text_.push_back(c);
  weights_.push_back(w);
  psw_.Append(w);
  prefix_fps_.push_back(hasher_.Append(prefix_fps_.back(), c));
  hasher_.PowerOfBase(text_.size());
  tree_.Extend(text_);
  ++appends_since_refresh_;

  // Every new occurrence is a suffix of the extended text (Section X): for
  // each tracked length l, probe the fingerprint of the new length-l suffix;
  // on a hit, fold in its local utility. O(L_K) per append.
  const index_t n = static_cast<index_t>(text_.size());
  for (index_t len : tracked_lengths_) {
    if (len > n) break;  // Lengths are sorted ascending.
    const index_t start = n - len;
    const u64 fp = hasher_.SuffixOf(prefix_fps_[n], prefix_fps_[start], len);
    TableValue* value = table_.Find(PatternKey{fp, len});
    if (value != nullptr) {
      value->acc.Add(psw_.LocalUtility(start, len), options_.utility);
    }
  }
}

void DynamicUsi::RefreshTopK() {
  table_.Clear();
  tracked_lengths_.clear();
  appends_since_refresh_ = 0;
  if (text_.empty() || options_.k == 0) return;

  // Recompute the exact top-K (the deferred-cost path the paper describes).
  const std::vector<index_t> sa = BuildSuffixArray(text_);
  const TopKList mined = ExactTopK(text_, sa, options_.k);

  // The static index's phase (ii): one SA sweep over the mined intervals
  // (ExhaustiveQueryEngine::AggregateIntervals), keyed by fingerprint.
  std::vector<IntervalItem> items;
  items.reserve(mined.items.size());
  for (const TopKSubstring& item : mined.items) {
    const index_t start = item.witness;
    const u64 fp = hasher_.SuffixOf(prefix_fps_[start + item.length],
                                    prefix_fps_[start], item.length);
    items.push_back({SaInterval{item.lb, item.rb}, item.length, fp});
  }
  std::vector<UtilityAccumulator> sums;
  ExhaustiveQueryEngine(text_, sa, psw_, options_.utility)
      .AggregateIntervals(items, sums);
  for (std::size_t i = 0; i < items.size(); ++i) {
    table_.FindOrInsert(PatternKey{items[i].tag, items[i].length},
                        TableValue{sums[i]});
    tracked_lengths_.push_back(items[i].length);
  }
  std::sort(tracked_lengths_.begin(), tracked_lengths_.end());
  tracked_lengths_.erase(
      std::unique(tracked_lengths_.begin(), tracked_lengths_.end()),
      tracked_lengths_.end());
}

QueryResult DynamicUsi::Query(std::span<const Symbol> pattern) const {
  QueryResult result;
  if (pattern.empty() || pattern.size() > text_.size()) return result;
  const u64 fp = hasher_.Hash(pattern);
  const TableValue* value =
      table_.Find(PatternKey{fp, static_cast<u32>(pattern.size())});
  if (value != nullptr && value->acc.count > 0) {
    result.utility = value->acc.Finalize(options_.utility);
    result.occurrences = value->acc.count;
    result.from_hash_table = true;
    return result;
  }
  // Fallback: suffix tree locates all occurrences, PSW aggregates them.
  const std::vector<index_t> occurrences =
      tree_.CollectOccurrences(text_, pattern);
  if (occurrences.empty()) return result;
  UtilityAccumulator acc;
  const index_t m = static_cast<index_t>(pattern.size());
  for (index_t start : occurrences) {
    acc.Add(psw_.LocalUtility(start, m), options_.utility);
  }
  result.utility = acc.Finalize(options_.utility);
  result.occurrences = static_cast<index_t>(occurrences.size());
  return result;
}

std::size_t DynamicUsi::SizeInBytes() const {
  return text_.capacity() * sizeof(Symbol) +
         weights_.capacity() * sizeof(double) + psw_.SizeInBytes() +
         prefix_fps_.capacity() * sizeof(u64) + tree_.SizeInBytes() +
         table_.SizeInBytes() + tracked_lengths_.capacity() * sizeof(index_t);
}

}  // namespace usi
