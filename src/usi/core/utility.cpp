#include "usi/core/utility.hpp"

#include <algorithm>

namespace usi {

const char* GlobalUtilityKindName(GlobalUtilityKind kind) {
  switch (kind) {
    case GlobalUtilityKind::kSum:
      return "sum";
    case GlobalUtilityKind::kMin:
      return "min";
    case GlobalUtilityKind::kMax:
      return "max";
    case GlobalUtilityKind::kAvg:
      return "avg";
  }
  return "?";
}

PrefixSumWeights::PrefixSumWeights(const WeightedString& ws) {
  psw_.resize(ws.size());
  double running = 0;
  for (index_t i = 0; i < ws.size(); ++i) {
    running += ws.weight(i);
    psw_[i] = running;
  }
  data_ = psw_.data();
  size_ = psw_.size();
}

double UtilityAccumulator::Finalize(GlobalUtilityKind kind) const {
  if (count == 0) return 0;
  if (kind == GlobalUtilityKind::kAvg) {
    return value / static_cast<double>(count);
  }
  return value;
}

QueryResult MergeQueryResults(const QueryResult& base, const QueryResult& delta,
                              GlobalUtilityKind kind) {
  if (delta.occurrences == 0) return base;
  if (base.occurrences == 0) {
    QueryResult out = delta;
    return out;
  }
  QueryResult out = base;
  out.occurrences = base.occurrences + delta.occurrences;
  switch (kind) {
    case GlobalUtilityKind::kSum:
      out.utility = base.utility + delta.utility;
      break;
    case GlobalUtilityKind::kMin:
      out.utility = std::min(base.utility, delta.utility);
      break;
    case GlobalUtilityKind::kMax:
      out.utility = std::max(base.utility, delta.utility);
      break;
    case GlobalUtilityKind::kAvg:
      out.utility =
          (base.utility * static_cast<double>(base.occurrences) +
           delta.utility * static_cast<double>(delta.occurrences)) /
          static_cast<double>(out.occurrences);
      break;
  }
  return out;
}

SaInterval ExhaustiveQueryEngine::Locate(
    std::span<const Symbol> pattern) const {
  USI_CHECK(wired());
  if (learned_ != nullptr && !learned_->empty()) {
    return learned_->FindInterval(*text_, sa_, pattern);
  }
  return FindSaInterval(*text_, sa_, pattern);
}

QueryResult ExhaustiveQueryEngine::Aggregate(SaInterval interval,
                                             index_t m) const {
  USI_CHECK(wired());
  QueryResult result;
  if (interval.IsEmpty()) return result;
  UtilityAccumulator acc;
  const GlobalUtilityKind kind = kind_;
  const PrefixSumWeights* psw = psw_;
  VisitSaInterval(sa_, interval, psw->data(), [&](index_t pos) {
    acc.Add(psw->LocalUtility(pos, m), kind);
  });
  result.utility = acc.Finalize(kind);
  result.occurrences = interval.Count();
  return result;
}

namespace {

/// The AggregateIntervals sweep for one aggregator (a template parameter,
/// so the per-occurrence fold compiles without the kind switch).
template <GlobalUtilityKind kKind>
void SweepIntervals(std::span<const index_t> sa, const double* psw,
                    std::span<const IntervalItem> items,
                    std::span<UtilityAccumulator> sums) {
  // The items containing the current rank, innermost on top. Accumulators
  // live in the stack entries so the per-rank loop stays on contiguous
  // memory; they are written back when their interval ends.
  struct Active {
    index_t rb;
    index_t last;  ///< length - 1: the PSW offset of the occurrence end.
    std::size_t item;
    UtilityAccumulator sum;
  };
  std::vector<Active> active;
  // The SA stream is sequential; the PSW reads of a rank are random, at
  // psw[p - 1] and psw[p + a.last] for every active item. kPswLead ranks
  // ahead, every PSW line from psw[p - 1] to psw[p + last] of the top item
  // is prefetched: the top is the innermost interval, whose substring is
  // the longest, so its line range covers every item's read (a miner that
  // broke that nesting would cost only misses, never answers).
  constexpr std::size_t kSaLead = 32;
  constexpr std::size_t kPswLead = 16;
  constexpr std::size_t kLine = 64 / sizeof(double);
  const std::size_t n = sa.size();
  std::size_t next = 0;
  while (next < items.size()) {
    // Ranks no item covers are skipped: jump to the next interval start.
    std::size_t k = items[next].interval.lb;
    do {
      for (; next < items.size() && items[next].interval.lb == k; ++next) {
        const IntervalItem& item = items[next];
        USI_DCHECK(active.empty() || item.interval.rb <= active.back().rb);
        active.push_back({item.interval.rb, item.length - 1, next, {}});
      }
      if (k + kSaLead < n) __builtin_prefetch(&sa[k + kSaLead]);
      if (k + kPswLead < n) {
        const std::size_t ahead = sa[k + kPswLead];
        const std::size_t last = std::min(ahead + active.back().last, n - 1);
        for (std::size_t x = ahead == 0 ? 0 : ahead - 1; x < last; x += kLine) {
          __builtin_prefetch(psw + x);
        }
        __builtin_prefetch(psw + last);
      }
      // The same expression as PrefixSumWeights::LocalUtility, so every
      // item's sum matches Aggregate bit for bit.
      const index_t p = sa[k];
      const double before = p == 0 ? 0.0 : psw[p - 1];
      const double* const end = psw + p;
      for (Active& a : active) a.sum.Add(end[a.last] - before, kKind);
      ++k;
      while (!active.empty() && active.back().rb < k) {
        sums[active.back().item] = active.back().sum;
        active.pop_back();
      }
    } while (!active.empty());
  }
}

}  // namespace

void ExhaustiveQueryEngine::AggregateIntervals(
    std::vector<IntervalItem>& items,
    std::vector<UtilityAccumulator>& sums) const {
  USI_CHECK(wired());
  std::erase_if(items, [](const IntervalItem& item) {
    return item.interval.IsEmpty() || item.length == 0;
  });
  std::sort(items.begin(), items.end(),
            [](const IntervalItem& a, const IntervalItem& b) {
              if (a.interval.lb != b.interval.lb) {
                return a.interval.lb < b.interval.lb;
              }
              if (a.interval.rb != b.interval.rb) {
                return a.interval.rb > b.interval.rb;
              }
              return a.length < b.length;
            });
  // Same interval and length is the same substring (an approximate miner
  // may report it twice); its occurrences must be counted once.
  items.erase(std::unique(items.begin(), items.end(),
                          [](const IntervalItem& a, const IntervalItem& b) {
                            return a.interval.lb == b.interval.lb &&
                                   a.interval.rb == b.interval.rb &&
                                   a.length == b.length;
                          }),
              items.end());
  sums.assign(items.size(), UtilityAccumulator{});
  // The sweep clamps its PSW prefetches to sa_.size().
  USI_DCHECK(psw_->size() == sa_.size());
  const double* psw = psw_->data();
  switch (kind_) {
    case GlobalUtilityKind::kSum:
    case GlobalUtilityKind::kAvg:
      SweepIntervals<GlobalUtilityKind::kSum>(sa_, psw, items, sums);
      break;
    case GlobalUtilityKind::kMin:
      SweepIntervals<GlobalUtilityKind::kMin>(sa_, psw, items, sums);
      break;
    case GlobalUtilityKind::kMax:
      SweepIntervals<GlobalUtilityKind::kMax>(sa_, psw, items, sums);
      break;
  }
}

QueryResult ExhaustiveQueryEngine::Compute(
    std::span<const Symbol> pattern) const {
  // A default-constructed engine has nothing to answer from; computing
  // through it is a wiring bug, not bad input — abort before the null
  // borrows are dereferenced.
  USI_CHECK(wired());
  if (pattern.empty()) return QueryResult{};
  return Aggregate(Locate(pattern), static_cast<index_t>(pattern.size()));
}

std::size_t ExhaustiveQueryEngine::SizeInBytes() const {
  if (!wired()) return 0;
  return sa_.size() * sizeof(index_t) + psw_->SizeInBytes();
}

}  // namespace usi
