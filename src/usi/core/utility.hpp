#ifndef USI_CORE_UTILITY_HPP_
#define USI_CORE_UTILITY_HPP_

/// \file utility.hpp
/// The utility-function framework of Section III.
///
/// Local utility: u(i, l) aggregates w[i..i+l-1]; the class U of the paper
/// requires the sliding-window property, whose canonical instance is the
/// sum — implemented by PrefixSumWeights in O(1) per fragment after an O(n)
/// scan. Global utility: U(P) aggregates the local utilities of all
/// occurrences; any linear-time-computable aggregator qualifies, and the four
/// the paper names (sum, min, max, avg) are provided. The default everywhere
/// is the commonly-used "sum of sums" [1], as in Section IX.

#include <algorithm>
#include <span>
#include <vector>

#include "usi/core/query_engine.hpp"
#include "usi/suffix/learned_sa.hpp"
#include "usi/suffix/sa_search.hpp"
#include "usi/text/weighted_string.hpp"
#include "usi/util/common.hpp"

namespace usi {

/// Global aggregator over occurrence-local utilities (the paper's U).
enum class GlobalUtilityKind : u8 { kSum, kMin, kMax, kAvg };

/// Number of GlobalUtilityKind enumerators. Loaders validate serialized kind
/// bytes against this; update the anchor when extending the enum past kAvg.
inline constexpr u8 kNumGlobalUtilityKinds =
    static_cast<u8>(GlobalUtilityKind::kAvg) + 1;

/// Human-readable aggregator name.
const char* GlobalUtilityKindName(GlobalUtilityKind kind);

/// The PSW array of Section IV: PSW[i] = u(0, i+1), so any local utility is
/// u(i, l) = PSW[i+l-1] - PSW[i-1] in O(1) (sliding-window property).
///
/// Storage is either owned (built from a WeightedString, appendable) or a
/// non-owning view over an external array (FromRaw — index format v3 serves
/// the PSW section straight out of an mmap). Reads always go through
/// data_/size_, so both modes share one branch-free query path; the backing
/// of a view must outlive the object.
class PrefixSumWeights {
 public:
  PrefixSumWeights() = default;

  /// Builds PSW from \p ws in one scan.
  explicit PrefixSumWeights(const WeightedString& ws);

  PrefixSumWeights(const PrefixSumWeights& other) { *this = other; }
  PrefixSumWeights& operator=(const PrefixSumWeights& other) {
    psw_ = other.psw_;
    view_ = other.view_;
    size_ = other.size_;
    data_ = view_ ? other.data_ : psw_.data();
    return *this;
  }
  PrefixSumWeights(PrefixSumWeights&& other) noexcept {
    *this = std::move(other);
  }
  PrefixSumWeights& operator=(PrefixSumWeights&& other) noexcept {
    psw_ = std::move(other.psw_);
    view_ = other.view_;
    size_ = other.size_;
    data_ = view_ ? other.data_ : psw_.data();
    return *this;
  }

  /// Wraps an external prefix-sum array of \p size doubles without copying.
  /// The array must already hold inclusive prefix sums and must outlive the
  /// returned object.
  static PrefixSumWeights FromRaw(const double* data, index_t size) {
    PrefixSumWeights psw;
    psw.data_ = data;
    psw.size_ = size;
    psw.view_ = true;
    return psw;
  }

  /// Local utility of the fragment starting at \p i with length \p len.
  double LocalUtility(index_t i, index_t len) const {
    USI_DCHECK(len > 0 && i + len <= size_);
    const double before = (i == 0) ? 0.0 : data_[i - 1];
    return data_[i + len - 1] - before;
  }

  /// Extends PSW by one position of weight \p w (DynamicUsi and
  /// DeltaOverlay appends).
  /// Views are immutable; appending to one is a programming error.
  void Append(double w) {
    USI_CHECK(!view_);
    psw_.push_back((psw_.empty() ? 0.0 : psw_.back()) + w);
    data_ = psw_.data();
    size_ = psw_.size();
  }

  /// Pre-grows the owned array so Append up to \p n positions skips its
  /// geometric reallocation steps. Views are immutable; reserving on one is
  /// a programming error.
  void Reserve(index_t n) {
    USI_CHECK(!view_);
    psw_.reserve(n);
    data_ = psw_.data();
  }

  /// Number of covered positions.
  index_t size() const { return static_cast<index_t>(size_); }

  /// First prefix sum (size() doubles); what SaveToFile serializes.
  const double* data() const { return data_; }

  /// Whether the array is owned (false for FromRaw views).
  bool OwnsStorage() const { return !view_; }

  /// Heap footprint in bytes; views report the bytes they reference.
  std::size_t SizeInBytes() const {
    return view_ ? size_ * sizeof(double) : psw_.capacity() * sizeof(double);
  }

 private:
  std::vector<double> psw_;
  const double* data_ = nullptr;
  std::size_t size_ = 0;
  bool view_ = false;
};

/// Running aggregate of one global utility; Add() folds in one occurrence's
/// local utility, Finalize() produces U(P).
struct UtilityAccumulator {
  double value = 0;
  index_t count = 0;

  /// Inline: the SA sweeps call it once per occurrence, with \p kind a
  /// compile-time constant there.
  void Add(double local, GlobalUtilityKind kind) {
    switch (kind) {
      case GlobalUtilityKind::kSum:
      case GlobalUtilityKind::kAvg:
        value += local;
        break;
      case GlobalUtilityKind::kMin:
        value = (count == 0) ? local : std::min(value, local);
        break;
      case GlobalUtilityKind::kMax:
        value = (count == 0) ? local : std::max(value, local);
        break;
    }
    ++count;
  }
  double Finalize(GlobalUtilityKind kind) const;
};

/// One located pattern for ExhaustiveQueryEngine::AggregateIntervals: the
/// SA interval of its occurrences, its length, and a caller tag carried
/// through the sort (the index builders keep the pattern's Karp-Rabin
/// fingerprint there).
struct IntervalItem {
  SaInterval interval;
  index_t length = 0;
  u64 tag = 0;
};

/// Merges two finalized answers over DISJOINT occurrence sets of the same
/// pattern (the update tier's base + delta split: base counts occurrences
/// ending inside the pinned generation, the delta counts those ending past
/// it) into the answer over their union. Exact for kSum/kMin/kMax — the
/// aggregates compose losslessly; kAvg reconstructs each side's sum from
/// its average, so the merged value can differ from a monolithic
/// computation by one floating-point rounding (occurrence counts are always
/// exact). Either side may be empty (count 0).
QueryResult MergeQueryResults(const QueryResult& base, const QueryResult& delta,
                              GlobalUtilityKind kind);

/// The prefix-sums query path shared by USI's fallback and all baselines:
/// locate the pattern in the suffix array (O(m log n)), then aggregate the
/// local utility of every occurrence through PSW (O(occ)). QueryResult and
/// the QueryEngine interface live in query_engine.hpp.
class ExhaustiveQueryEngine : public QueryEngine {
 public:
  /// Default-constructed engines are unwired: Compute/Query on them is a
  /// programming error and aborts via USI_CHECK (fail loudly rather than
  /// dereference null borrows).
  ExhaustiveQueryEngine() = default;

  /// \p text and \p psw are borrowed, \p sa viewed; all must outlive the
  /// engine. Taking the SA as a span lets heap-built and mmap-backed indexes
  /// share this engine unchanged.
  ExhaustiveQueryEngine(const Text& text, std::span<const index_t> sa,
                        const PrefixSumWeights& psw, GlobalUtilityKind kind)
      : text_(&text), sa_(sa), psw_(&psw), kind_(kind), wired_(true) {}

  /// Attaches a learned last-mile model (borrowed, may be null to detach;
  /// must outlive the engine). When present and non-empty, Compute locates
  /// intervals through LearnedSa::FindInterval — byte-identical answers,
  /// fewer cache-missing probes. Engines copied by value carry the pointer
  /// with them, so the model must outlive every copy too.
  void AttachLearned(const LearnedSa* learned) { learned_ = learned; }

  /// The attached model (null when searching plain).
  const LearnedSa* learned() const { return learned_; }

  /// Computes U(pattern) by full occurrence aggregation.
  QueryResult Compute(std::span<const Symbol> pattern) const;

  /// Locates the pattern's SA interval — through the learned model when one
  /// is attached, plain binary search otherwise. Identical answers.
  SaInterval Locate(std::span<const Symbol> pattern) const;

  /// Aggregates a located interval into U(P) for a pattern of length \p m
  /// (the occurrence-aggregation half of Compute; the batched fallback path
  /// resolves intervals in bulk and aggregates them through this). SA and
  /// PSW reads run with software prefetch — occurrence walks are SA-ordered
  /// random access into both arrays.
  QueryResult Aggregate(SaInterval interval, index_t m) const;

  /// Aggregates many located patterns in ONE left-to-right pass over the
  /// SA — the table stage of the index builders (phase (ii)). SA intervals
  /// of distinct substrings are nested or disjoint (the LCP-interval
  /// tree), so after sorting \p items by (lb asc, rb desc, length asc) a
  /// stack holds exactly the items whose interval contains the current
  /// rank: each rank reads sa[k] and PSW[sa[k]-1] once and feeds every
  /// active item. Cost O(|covered ranks| + sum of occurrences), within
  /// the paper's O(n * L_K) for phase (ii).
  ///
  /// On return \p items is sorted as above with empty intervals, zero
  /// lengths and exact duplicates (same interval and length) dropped, and
  /// sums[i] holds items[i]'s running aggregate (not finalized). Each
  /// item folds its occurrences in SA order, exactly as Aggregate does, so
  /// every sum is bit-identical to Aggregate(items[i].interval,
  /// items[i].length) on the same engine.
  void AggregateIntervals(std::vector<IntervalItem>& items,
                          std::vector<UtilityAccumulator>& sums) const;

  /// QueryEngine interface. Stateless per query, so concurrent calls are
  /// safe once the engine is wired.
  QueryResult Query(std::span<const Symbol> pattern) override {
    return Compute(pattern);
  }
  const char* Name() const override { return "SA+PSW"; }
  std::size_t SizeInBytes() const override;
  bool SupportsConcurrentQuery() const override { return true; }

  /// Whether the engine borrows a live text/SA/PSW triple.
  bool wired() const { return wired_; }

  GlobalUtilityKind kind() const { return kind_; }

 private:
  const Text* text_ = nullptr;
  std::span<const index_t> sa_;
  const PrefixSumWeights* psw_ = nullptr;
  const LearnedSa* learned_ = nullptr;  ///< Borrowed; null = plain search.
  GlobalUtilityKind kind_ = GlobalUtilityKind::kSum;
  bool wired_ = false;
};

}  // namespace usi

#endif  // USI_CORE_UTILITY_HPP_
