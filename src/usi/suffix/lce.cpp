#include "usi/suffix/lce.hpp"

#include <algorithm>

#include "usi/suffix/lcp_array.hpp"
#include "usi/suffix/suffix_array.hpp"

namespace usi {
namespace {

/// Finds the largest len in [0, limit] with eq(len) true, assuming eq is
/// monotone (true for a prefix of lengths). Exponential search first so the
/// cost is O(log lce) fragment comparisons, then binary search.
template <typename EqFn>
index_t MonotoneMaxTrue(index_t limit, EqFn eq) {
  if (limit == 0 || !eq(1)) return 0;
  index_t good = 1;
  index_t bad = limit + 1;  // Virtual mismatch just past the end.
  for (index_t probe = 2; probe <= limit; probe <<= 1) {
    if (eq(probe)) {
      good = probe;
    } else {
      bad = probe;
      break;
    }
    if (probe > limit / 2) break;  // Next shift would overflow past limit.
  }
  if (bad == limit + 1 && good < limit) {
    if (eq(limit)) return limit;
    bad = limit;
  }
  while (good + 1 < bad) {
    const index_t mid = good + (bad - good) / 2;
    if (eq(mid)) {
      good = mid;
    } else {
      bad = mid;
    }
  }
  return good;
}

}  // namespace

int LceOracle::CompareSuffixes(index_t i, index_t j) const {
  if (i == j) return 0;
  const index_t lce = Lce(i, j);
  const index_t len_i = n() - i;
  const index_t len_j = n() - j;
  if (lce >= len_i || lce >= len_j) {
    // One suffix is a prefix of the other; the shorter one is smaller.
    return len_i < len_j ? -1 : (len_i > len_j ? 1 : 0);
  }
  return text()[i + lce] < text()[j + lce] ? -1 : 1;
}

int LceOracle::CompareFragments(index_t i, index_t len_i, index_t j,
                                index_t len_j) const {
  const index_t lce = (i == j) ? std::max(len_i, len_j) : Lce(i, j);
  const index_t common = std::min({lce, len_i, len_j});
  if (common < len_i && common < len_j) {
    return text()[i + common] < text()[j + common] ? -1 : 1;
  }
  return len_i < len_j ? -1 : (len_i > len_j ? 1 : 0);
}

index_t NaiveLce::Lce(index_t i, index_t j) const {
  if (i == j) return n() - i;
  index_t k = 0;
  const index_t limit = n() - std::max(i, j);
  const Symbol* data = text().data();
  while (k < limit && data[i + k] == data[j + k]) ++k;
  return k;
}

RmqLce::RmqLce(const Text& text)
    : LceOracle(text),
      sa_(BuildSuffixArray(text)),
      lcp_(text.size()),
      rank_(text.size()) {
  // Kasai's scan leaves its inverse-SA scratch in rank_: one rank pass.
  BuildLcpArray(text, sa_, rank_, lcp_);
  rmq_ = RangeMin(lcp_);
}

index_t RmqLce::Lce(index_t i, index_t j) const {
  if (i == j) return n() - i;
  index_t ri = rank_[i];
  index_t rj = rank_[j];
  if (ri > rj) std::swap(ri, rj);
  return rmq_.Min(ri + 1, rj);
}

std::size_t RmqLce::SizeInBytes() const {
  return sa_.capacity() * sizeof(index_t) +
         lcp_.capacity() * sizeof(index_t) +
         rank_.capacity() * sizeof(index_t) + rmq_.SizeInBytes();
}

KrLce::KrLce(const Text& text, const KarpRabinHasher& hasher)
    : LceOracle(text), fps_(text, hasher) {}

index_t KrLce::Lce(index_t i, index_t j) const {
  if (i == j) return n() - i;
  const index_t limit = n() - std::max(i, j);
  return MonotoneMaxTrue(limit, [&](index_t len) {
    return fps_.Fragment(i, len) == fps_.Fragment(j, len);
  });
}

SampledKrLce::SampledKrLce(const Text& text, const KarpRabinHasher& hasher,
                           index_t sample_rate)
    : LceOracle(text), hasher_(&hasher), sample_rate_(sample_rate) {
  USI_CHECK(sample_rate >= 1);
  samples_.reserve(n() / sample_rate + 2);
  u64 fp = 0;
  for (index_t i = 0; i <= n(); ++i) {
    if (i % sample_rate == 0) samples_.push_back(fp);
    if (i < n()) fp = hasher.Append(fp, text[i]);
  }
  hasher.PowerOfBase(n());  // Pre-grow the power table for queries.
}

u64 SampledKrLce::PrefixFp(index_t len) const {
  const index_t k = len / sample_rate_;
  u64 fp = samples_[k];
  for (index_t i = k * sample_rate_; i < len; ++i) {
    fp = hasher_->Append(fp, text()[i]);
  }
  return fp;
}

u64 SampledKrLce::FragmentFp(index_t i, index_t len) const {
  return hasher_->SuffixOf(PrefixFp(i + len), PrefixFp(i), len);
}

index_t SampledKrLce::Lce(index_t i, index_t j) const {
  if (i == j) return n() - i;
  const index_t limit = n() - std::max(i, j);
  return MonotoneMaxTrue(limit, [&](index_t len) {
    return FragmentFp(i, len) == FragmentFp(j, len);
  });
}

}  // namespace usi
