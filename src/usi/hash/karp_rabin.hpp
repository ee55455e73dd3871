#ifndef USI_HASH_KARP_RABIN_HPP_
#define USI_HASH_KARP_RABIN_HPP_

/// \file karp_rabin.hpp
/// Karp-Rabin rolling fingerprints modulo the Mersenne prime 2^61 - 1.
///
/// Fingerprints are the keys of the USI hash table (Section IV): equal
/// strings hash equal, and distinct substrings of a text collide with
/// probability O(n^2 / 2^61) for a random base. The class precomputes prefix
/// fingerprints and base powers so any substring fingerprint is O(1)
/// (Section III cites [18] for exactly this); RollingHasher supports
/// sliding-window queries (UsiIndex::QueryAllWindows) without the O(n)-word
/// prefix table.

#include <span>
#include <vector>

#include "usi/text/alphabet.hpp"
#include "usi/util/common.hpp"

namespace usi {

/// Arithmetic modulo p = 2^61 - 1.
class Mersenne61 {
 public:
  static constexpr u64 kPrime = (u64{1} << 61) - 1;

  static u64 Add(u64 a, u64 b) {
    u64 s = a + b;
    if (s >= kPrime) s -= kPrime;
    return s;
  }

  static u64 Sub(u64 a, u64 b) { return Add(a, kPrime - b); }

  static u64 Mul(u64 a, u64 b) {
    const unsigned __int128 product =
        static_cast<unsigned __int128>(a) * static_cast<unsigned __int128>(b);
    u64 lo = static_cast<u64>(product & kPrime);
    u64 hi = static_cast<u64>(product >> 61);
    u64 s = lo + hi;
    if (s >= kPrime) s -= kPrime;
    return s;
  }

  static u64 Pow(u64 base, u64 exp) {
    u64 result = 1;
    while (exp > 0) {
      if (exp & 1) result = Mul(result, base);
      base = Mul(base, base);
      exp >>= 1;
    }
    return result;
  }
};

/// Fingerprint of S[i..j] = sum (S[k] + 1) * base^(j-k) mod p, i.e. most
/// significant letter first. Stateless of the text; carries only the base
/// and its powers.
///
/// Thread-safety: Hash() and Append() never touch the lazily-grown power
/// table and are safe to call concurrently; so is constructing a
/// RollingHasher, which computes its one power with Mersenne61::Pow. Every
/// query path of the index fingerprints through these alone. PowerOfBase()
/// (and what is built on it: Concat, SuffixOf, PrefixFingerprints) grows the
/// table on a cache miss, so sharing those across threads requires one
/// PowerOfBase() call with the largest exponent needed first.
class KarpRabinHasher {
 public:
  /// Derives a random base in [256, p-1) from \p seed.
  explicit KarpRabinHasher(u64 seed = 0xF1A6F1A6ULL);

  /// Whether \p base is acceptable to FromBase. Deserializers must check
  /// untrusted bases with this instead of letting FromBase abort.
  static bool IsValidBase(u64 base) {
    return base >= 257 && base < Mersenne61::kPrime;
  }

  /// Reconstructs a hasher with a known base (index deserialization: stored
  /// fingerprints are only valid under the base that produced them).
  static KarpRabinHasher FromBase(u64 base);

  /// The base in use (two structures hashing the same text must share it).
  u64 base() const { return base_; }

  /// base^k mod p; grows the internal power table on demand.
  u64 PowerOfBase(std::size_t k) const;

  /// O(len) fingerprint of an explicit string: Horner's rule over blocks
  /// of 8 symbols, fp <- fp * base^8 + sum_j (c_j + 1) * base^(7-j). Each
  /// block sum is formed in 128-bit arithmetic off the dependency chain,
  /// so the chain pays one modular multiply per 8 symbols; the tail is one
  /// 4-symbol block and at most 3 Append steps. The value is bit-identical
  /// to an Append loop over \p s. Reads only the base and its fixed first
  /// powers, never the power table, so it is safe to call concurrently.
  u64 Hash(std::span<const Symbol> s) const;

  /// Extends fingerprint \p fp of a string X to the fingerprint of X.c.
  u64 Append(u64 fp, Symbol c) const {
    return Mersenne61::Add(Mersenne61::Mul(fp, base_), c + 1);
  }

  /// Fingerprint of X.Y given fp(X), fp(Y) and |Y|.
  u64 Concat(u64 fp_left, u64 fp_right, std::size_t right_len) const {
    return Mersenne61::Add(Mersenne61::Mul(fp_left, PowerOfBase(right_len)),
                           fp_right);
  }

  /// Fingerprint of Y given fp(X.Y), fp(X) and |Y| (suffix extraction).
  u64 SuffixOf(u64 fp_full, u64 fp_prefix, std::size_t suffix_len) const {
    return Mersenne61::Sub(
        fp_full, Mersenne61::Mul(fp_prefix, PowerOfBase(suffix_len)));
  }

 private:
  void SetBase(u64 base);

  u64 base_;
  u64 block_powers_[9] = {};         // block_powers_[k] = base^k, fixed.
  mutable std::vector<u64> powers_;  // powers_[k] = base^k.
};

/// Prefix-fingerprint table over a fixed text: O(1) fingerprint of any
/// fragment. This is the construction-time representation used by the USI
/// index and by the KR-based LCE backend.
class PrefixFingerprints {
 public:
  PrefixFingerprints() = default;

  /// Builds prefix fingerprints of \p text with \p hasher (O(n)).
  PrefixFingerprints(const Text& text, const KarpRabinHasher& hasher);

  /// Fingerprint of text[i .. i+len-1] in O(1).
  u64 Fragment(index_t i, index_t len) const {
    USI_DCHECK(i + len < prefix_.size() + 1);
    return hasher_->SuffixOf(prefix_[i + len], prefix_[i], len);
  }

  /// Fingerprint of the length-\p len prefix.
  u64 Prefix(index_t len) const { return prefix_[len]; }

  /// Text length covered.
  index_t size() const {
    return prefix_.empty() ? 0 : static_cast<index_t>(prefix_.size() - 1);
  }

  /// Heap footprint in bytes.
  std::size_t SizeInBytes() const { return prefix_.capacity() * sizeof(u64); }

 private:
  const KarpRabinHasher* hasher_ = nullptr;
  std::vector<u64> prefix_;  // prefix_[k] = fp(text[0..k-1]).
};

/// Constant-space rolling window of fixed length over a stream of symbols:
/// push the next letter, the oldest one falls out. UsiIndex::QueryAllWindows
/// slides it over a document, one O(1) step per window.
class RollingHasher {
 public:
  /// \p window_len is the fixed window length.
  RollingHasher(const KarpRabinHasher& hasher, index_t window_len)
      : hasher_(&hasher),
        window_len_(window_len),
        top_power_(Mersenne61::Pow(hasher.base(),
                                   window_len > 0 ? window_len - 1 : 0)) {}

  /// Slides the window: removes \p outgoing (the letter window_len positions
  /// back) and appends \p incoming. For the first window_len letters pass
  /// Prime() as outgoing via Prime()/Push().
  void Push(Symbol incoming) {
    USI_DCHECK(filled_ < window_len_);
    fp_ = hasher_->Append(fp_, incoming);
    ++filled_;
  }

  /// Advances a full window by one letter.
  void Roll(Symbol outgoing, Symbol incoming) {
    USI_DCHECK(filled_ == window_len_);
    fp_ = Mersenne61::Sub(
        fp_, Mersenne61::Mul(static_cast<u64>(outgoing) + 1, top_power_));
    fp_ = hasher_->Append(fp_, incoming);
  }

  /// Whether the window is full.
  bool Full() const { return filled_ == window_len_; }

  /// Current window fingerprint (valid once Full()).
  u64 Fingerprint() const { return fp_; }

 private:
  const KarpRabinHasher* hasher_;
  index_t window_len_;
  u64 top_power_;
  u64 fp_ = 0;
  index_t filled_ = 0;
};

}  // namespace usi

#endif  // USI_HASH_KARP_RABIN_HPP_
