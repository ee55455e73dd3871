#include "usi/core/update_tier.hpp"

#include <algorithm>
#include <utility>

#include "usi/util/failpoint.hpp"

namespace usi {

DeltaOverlay::DeltaOverlay(std::shared_ptr<const WeightedString> base,
                           index_t context, u64 epoch, GlobalUtilityKind kind)
    : base_(std::move(base)),
      boundary_(base_->size()),
      d0_(boundary_ - std::min(context, boundary_)),
      epoch_(epoch),
      kind_(kind) {
  // Seed the window [d0, n0): same letters, same weights, so the window's
  // prefix sums reproduce the full text's local utilities.
  const index_t window = boundary_ - d0_;
  text_.reserve(window);
  weights_.reserve(window);
  psw_.Reserve(window);
  for (index_t i = d0_; i < boundary_; ++i) {
    AppendOne(base_->letter(i), base_->weight(i));
  }
}

void DeltaOverlay::AppendOne(Symbol c, double w) {
  text_.push_back(c);
  weights_.push_back(w);
  psw_.Append(w);
  tree_.Extend(text_);
}

void DeltaOverlay::Append(std::span<const Symbol> text,
                          std::span<const double> weights) {
  USI_CHECK(text.size() == weights.size());
  // Chaos hook, armed BEFORE any mutation: a fired `delta.append` rejects
  // the whole span with the overlay untouched (strong guarantee).
  USI_FAILPOINT("delta.append");
  std::unique_lock<std::shared_mutex> lock(mu_);
  try {
    for (std::size_t i = 0; i < text.size(); ++i) {
      AppendOne(text[i], weights[i]);
    }
  } catch (...) {
    // A mid-span failure leaves the tree/PSW half-extended; there is no
    // rollback, so the overlay marks itself unservable and rethrows — the
    // service drops it (base answers stay exact; the overlay's pending
    // appends are lost with it, which the caller sees as the error).
    poisoned_ = true;
    throw;
  }
}

QueryResult DeltaOverlay::QueryCrossingLocked(std::span<const Symbol> pattern,
                                              Scratch& scratch) const {
  QueryResult out;
  const index_t appended = AppendedLocked();
  if (appended == 0 || pattern.empty()) return out;
  const index_t m = static_cast<index_t>(pattern.size());
  const index_t total = boundary_ + appended;
  if (m > total) return out;
  UtilityAccumulator acc;
  if (d0_ == 0 || m <= boundary_ - d0_ + 1) {
    // Every crossing occurrence lies inside the window: collect, keep the
    // ones ending past the boundary, aggregate through the window PSW.
    tree_.CollectOccurrencesInto(text_, pattern, scratch.occ, scratch.stack);
    for (const index_t j : scratch.occ) {
      if (d0_ + j + m > boundary_) acc.Add(psw_.LocalUtility(j, m), kind_);
    }
  } else {
    // Pattern longer than the window: verify each candidate start directly
    // against base + appended content. Candidates are the O(m + appended)
    // starts whose occurrence would end past the boundary.
    const index_t first = boundary_ >= m ? boundary_ - m + 1 : 0;
    for (index_t i = first; i + m <= total; ++i) {
      bool match = true;
      for (index_t k = 0; k < m && match; ++k) {
        match = SymbolAtLocked(i + k) == pattern[k];
      }
      if (!match) continue;
      double local = 0;
      for (index_t k = 0; k < m; ++k) local += WeightAtLocked(i + k);
      acc.Add(local, kind_);
    }
  }
  if (acc.count == 0) return out;
  out.utility = acc.Finalize(kind_);
  out.occurrences = acc.count;
  return out;
}

WeightedString DeltaOverlay::SnapshotMerged() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const index_t total = TotalSizeLocked();
  Text text;
  std::vector<double> weights;
  text.reserve(total);
  weights.reserve(total);
  text.insert(text.end(), base_->text().begin(),
              base_->text().begin() + d0_);
  weights.insert(weights.end(), base_->weights().begin(),
                 base_->weights().begin() + d0_);
  text.insert(text.end(), text_.begin(), text_.end());
  weights.insert(weights.end(), weights_.begin(), weights_.end());
  return WeightedString(std::move(text), std::move(weights));
}

void DeltaOverlay::AppendFrom(const DeltaOverlay& from, index_t from_pos,
                              index_t count) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (index_t i = 0; i < count; ++i) {
    AppendOne(from.SymbolAtLocked(from_pos + i),
              from.WeightAtLocked(from_pos + i));
  }
}

void DeltaOverlay::Rebase(index_t new_boundary) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  USI_CHECK(new_boundary >= boundary_ && new_boundary <= TotalSizeLocked());
  boundary_ = new_boundary;
}

DeltaOverlayStats DeltaOverlay::StatsSnapshot() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  DeltaOverlayStats stats;
  stats.boundary = boundary_;
  stats.appended = AppendedLocked();
  stats.window = boundary_ - d0_;
  stats.bytes = text_.capacity() * sizeof(Symbol) +
                weights_.capacity() * sizeof(double) + psw_.SizeInBytes() +
                tree_.SizeInBytes();
  stats.epoch = epoch_;
  return stats;
}

}  // namespace usi
