#ifndef USI_SUFFIX_LCE_HPP_
#define USI_SUFFIX_LCE_HPP_

/// \file lce.hpp
/// Longest-common-extension oracles.
///
/// Approximate-Top-K (Section VI) implements all its string comparisons with
/// LCE queries: lce(i, j) = |longest common prefix of S[i..] and S[j..]|. The
/// paper uses Prezza's in-place structure (O(1) extra space, polylog query);
/// we expose an interface with four backends so the space/time trade-off is
/// explicit and benchmarkable (DESIGN.md Section 3):
///
///  * NaiveLce       — direct scan, O(1) space, O(lce) query (oracle).
///  * RmqLce         — SA + LCP + RMQ, O(n) words, O(1)-ish query.
///  * KrLce          — full prefix-fingerprint table, O(n) words,
///                     O(log n) query via exponential + binary search.
///  * SampledKrLce   — fingerprints every s-th prefix, O(n/s) words,
///                     O(s + log n) query; the small-space stand-in for
///                     Prezza's structure used by Approximate-Top-K.

#include <memory>
#include <vector>

#include "usi/hash/karp_rabin.hpp"
#include "usi/suffix/rmq.hpp"
#include "usi/text/alphabet.hpp"
#include "usi/util/common.hpp"

namespace usi {

/// Abstract LCE oracle over a fixed text.
class LceOracle {
 public:
  virtual ~LceOracle() = default;

  /// Length of the longest common prefix of S[i..n) and S[j..n).
  virtual index_t Lce(index_t i, index_t j) const = 0;

  /// Extra heap space held by the oracle (beyond the text).
  virtual std::size_t SizeInBytes() const = 0;

  /// Lexicographic comparison of suffixes S[i..) and S[j..) via one LCE.
  /// Returns negative/zero/positive like memcmp.
  int CompareSuffixes(index_t i, index_t j) const;

  /// Lexicographic comparison of fragments S[i..i+li) and S[j..j+lj).
  int CompareFragments(index_t i, index_t len_i, index_t j, index_t len_j) const;

 protected:
  explicit LceOracle(const Text& text) : text_(&text) {}

  const Text& text() const { return *text_; }
  index_t n() const { return static_cast<index_t>(text_->size()); }

 private:
  const Text* text_;
};

/// Direct character scan.
class NaiveLce : public LceOracle {
 public:
  explicit NaiveLce(const Text& text) : LceOracle(text) {}
  index_t Lce(index_t i, index_t j) const override;
  std::size_t SizeInBytes() const override { return 0; }
};

/// lce(i, j) = min of LCP[rank[i]+1 .. rank[j]]; constant-time via RMQ.
class RmqLce : public LceOracle {
 public:
  /// Builds SA + LCP + RMQ internally (O(n) construction).
  explicit RmqLce(const Text& text);

  index_t Lce(index_t i, index_t j) const override;
  std::size_t SizeInBytes() const override;

 private:
  std::vector<index_t> sa_;
  std::vector<index_t> lcp_;
  std::vector<index_t> rank_;
  RangeMin rmq_;  ///< Views lcp_.
};

/// Full Karp-Rabin prefix table; LCE by exponential + binary search on
/// fingerprint equality. Monte Carlo (wrong with probability O(n^2/2^61)).
class KrLce : public LceOracle {
 public:
  KrLce(const Text& text, const KarpRabinHasher& hasher);
  index_t Lce(index_t i, index_t j) const override;
  std::size_t SizeInBytes() const override { return fps_.SizeInBytes(); }

 private:
  PrefixFingerprints fps_;
};

/// Sampled Karp-Rabin prefixes: stores fp(S[0..ks)) for every k; a fragment
/// fingerprint costs O(s) rolling work, so lce costs O(s log n). This is the
/// sublinear-space backend Approximate-Top-K uses by default.
class SampledKrLce : public LceOracle {
 public:
  /// \p sample_rate is s; space is O(n/s) words.
  SampledKrLce(const Text& text, const KarpRabinHasher& hasher,
               index_t sample_rate);
  index_t Lce(index_t i, index_t j) const override;
  std::size_t SizeInBytes() const override {
    return samples_.capacity() * sizeof(u64);
  }

 private:
  /// Fingerprint of text[0..len) in O(sample_rate).
  u64 PrefixFp(index_t len) const;
  /// Fingerprint of text[i..i+len) in O(sample_rate).
  u64 FragmentFp(index_t i, index_t len) const;

  const KarpRabinHasher* hasher_;
  index_t sample_rate_;
  std::vector<u64> samples_;  // samples_[k] = fp(text[0 .. k*s)).
};

}  // namespace usi

#endif  // USI_SUFFIX_LCE_HPP_
