#ifndef USI_CORE_UPDATE_TIER_HPP_
#define USI_CORE_UPDATE_TIER_HPP_

/// \file update_tier.hpp
/// The delta side of the LSM-flavored update tier: a small, mutable overlay
/// that absorbs appends against an immutable base generation and answers the
/// occurrences the base cannot see.
///
/// \par The base/delta split
/// A published generation indexes the text prefix [0, n0). Appends extend
/// the text past n0 without touching the generation; the overlay owns them.
/// For a pattern of length m, every occurrence either ends at or before n0
/// (the base generation counts it — its index is exact over [0, n0)) or
/// ends after n0 (it uses at least one appended position; the overlay
/// counts it). The two sets partition the occurrences of the full text, so
/// merging the two finalized answers (MergeQueryResults, utility.hpp) is
/// exact — no occurrence is counted twice, none is missed.
///
/// \par How the overlay answers its half
/// The overlay copies a tail *window* [d0, n0) of the base
/// (d0 = n0 - min(context, n0)) into its own text and appends past it. It
/// owns exactly what its answers read: that text, its weights, their prefix
/// sums (PSW) and an online Ukkonen suffix tree over the text — the
/// update mechanism of Section X, without the tracked table or fingerprints
/// of the standalone DynamicUsi. A crossing occurrence starts at most m-1
/// positions before n0, so as long as m-1 <= n0 - d0 the window contains
/// every crossing occurrence in full: the overlay collects the pattern's
/// occurrences in its text (suffix tree), keeps those ending past n0, and
/// aggregates their PSW local utilities — the window's prefix sums
/// reproduce the same local sums as the full text's. Patterns longer than
/// the window (rare; bounded by the configured context) fall back to a
/// direct verify-and-sum scan over the O(m + appended) candidate starts,
/// reading base text for positions before d0.
///
/// \par Concurrency
/// Internally synchronized with a shared_mutex: Append takes it exclusively
/// for the whole span (a multi-symbol append is atomic — readers see all of
/// it or none); queries take LockForRead and may hold it across a whole
/// batch group, giving the group one untorn snapshot. The owning service
/// orders entry locks BEFORE overlay locks; readers take the overlay lock
/// only after releasing the entry lock.
///
/// \par Lifetime
/// The overlay shares the base text with its generation (both hold the
/// same shared_ptr), so the text — not the generation's index — stays
/// alive for as long as the overlay does. Pinning (generation, overlay)
/// pairs is what makes a batch's view consistent.

#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <vector>

#include "usi/core/utility.hpp"
#include "usi/suffix/suffix_tree.hpp"
#include "usi/text/weighted_string.hpp"

namespace usi {

/// Telemetry snapshot of one overlay (usi_inspect / StatsFor surface it).
struct DeltaOverlayStats {
  index_t boundary = 0;   ///< n0: base positions the pinned generation covers.
  index_t appended = 0;   ///< Symbols appended past the boundary.
  index_t window = 0;     ///< Seeded tail-context length (n0 - d0).
  std::size_t bytes = 0;  ///< Heap footprint: text, weights, PSW and tree.
  u64 epoch = 0;          ///< Lineage id (bumps when the service replaces it).
};

/// Mutable delta over one immutable base generation.
class DeltaOverlay {
 public:
  /// Reusable query scratch (occurrence list + tree traversal stack); one
  /// per batch scratch keeps the probe path allocation-free once warm.
  struct Scratch {
    std::vector<index_t> occ;
    std::vector<index_t> stack;
  };

  /// \p base is the generation's text (shared, so it outlives the
  /// generation if need be); the overlay covers appends past base->size().
  /// \p context bounds the seeded window; \p epoch tags the lineage;
  /// \p kind must match the paired generation's utility kind so the merged
  /// halves aggregate identically.
  DeltaOverlay(std::shared_ptr<const WeightedString> base, index_t context,
               u64 epoch, GlobalUtilityKind kind);

  /// Appends \p text / \p weights (equal length) atomically: the exclusive
  /// lock spans the whole call, so readers see all of the span or none of
  /// it. Throws when the `delta.append` failpoint is armed (before any
  /// mutation) or on allocation failure mid-append — in the latter case
  /// poisoned() turns true and the overlay must be discarded.
  void Append(std::span<const Symbol> text, std::span<const double> weights);

  /// An exception escaped mid-append: the overlay's state is torn and it
  /// must not serve. The pre-mutation failpoint does NOT poison.
  bool poisoned() const { return poisoned_; }

  /// Read lock for the probe path. Hold it across a batch group's probes
  /// for one consistent snapshot; every *Locked member requires it.
  std::shared_lock<std::shared_mutex> LockForRead() const {
    return std::shared_lock<std::shared_mutex>(mu_);
  }

  /// Symbols appended past the boundary.
  index_t AppendedLocked() const {
    return static_cast<index_t>(text_.size()) - (boundary_ - d0_);
  }

  /// Full text length: boundary + appended.
  index_t TotalSizeLocked() const { return boundary_ + AppendedLocked(); }

  /// The overlay's half of the split answer: occurrences of \p pattern
  /// ending strictly past the boundary, aggregated with the overlay's
  /// utility kind. Allocation-free once \p scratch has warmed.
  QueryResult QueryCrossingLocked(std::span<const Symbol> pattern,
                                  Scratch& scratch) const;

  /// Letter / utility at global position \p pos (>= d0 reads the overlay's
  /// window, below reads the base). Warm-start replay uses these.
  Symbol SymbolAtLocked(index_t pos) const {
    return pos < d0_ ? base_->letter(pos) : text_[pos - d0_];
  }
  double WeightAtLocked(index_t pos) const {
    return pos < d0_ ? base_->weight(pos) : weights_[pos - d0_];
  }

  /// Copies the full current content (base prefix + appends) into one
  /// WeightedString — the compaction snapshot the build lane indexes.
  WeightedString SnapshotMerged() const;

  /// Replays \p count appended positions of \p from, starting at global
  /// position \p from_pos, into this overlay (construction-time warm
  /// start; \p from must be quiescent for writes — the service holds the
  /// entry lock, which serializes all appenders).
  void AppendFrom(const DeltaOverlay& from, index_t from_pos, index_t count);

  /// Compaction-fallback rebase (the `compact.warmstart` containment path):
  /// moves the boundary forward to \p new_boundary — positions before it
  /// are now the new generation's responsibility — without rebuilding the
  /// window. Still exact; the over-wide window is reclaimed by the next
  /// successful warm start.
  void Rebase(index_t new_boundary);

  /// Base positions covered by the paired generation.
  index_t boundary() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return boundary_;
  }

  /// Lineage id assigned at construction (the service bumps its counter
  /// whenever it drops or replaces an overlay; a compaction publishes only
  /// when the live overlay still carries the epoch its snapshot saw).
  u64 epoch() const { return epoch_; }

  /// Telemetry snapshot (takes the read lock; O(1), the tree keeps its
  /// byte count as it grows).
  DeltaOverlayStats StatsSnapshot() const;

 private:
  /// Extends text, weights, PSW and tree by one position (exclusive lock
  /// held).
  void AppendOne(Symbol c, double w);

  mutable std::shared_mutex mu_;
  std::shared_ptr<const WeightedString> base_;  ///< Keeps the base text alive.
  index_t boundary_;  ///< n0 at construction; Rebase moves it forward.
  index_t d0_;        ///< First position the window covers.
  u64 epoch_;
  GlobalUtilityKind kind_;
  bool poisoned_ = false;
  // Positions [d0, n0 + appended): the window, then the appends.
  Text text_;
  std::vector<double> weights_;
  PrefixSumWeights psw_;  ///< Over weights_.
  SuffixTree tree_;       ///< Over text_, which it reads but does not copy.
};

}  // namespace usi

#endif  // USI_CORE_UPDATE_TIER_HPP_
