#ifndef USI_SUFFIX_LEARNED_SA_HPP_
#define USI_SUFFIX_LEARNED_SA_HPP_

/// \file learned_sa.hpp
/// Learned last-mile search over the suffix array ("Bounding the Last Mile:
/// Efficient Learned String Indexing", PAPERS.md).
///
/// The first few symbols of every suffix, packed most-significant-first
/// into a u64, form a key sequence that is non-strictly monotone in SA
/// order (the full lexicographic order refines the key order). Packing is
/// alphabet-aware: texts store the compact alphabet [0, sigma), so each
/// symbol needs only ceil(log2(sigma)) bits and a key covers
/// 64 / ceil(log2(sigma)) characters — 8 for byte-like texts, 32 for a
/// 4-symbol (DNA-like) text. That depth is what makes the model usable on
/// low-entropy alphabets: 8 *bytes* of a DNA text carry 16 bits of key
/// entropy, leaving equal-key runs thousands of entries long whose inner
/// boundaries no model over those keys can predict. A RadixSpline-style model —
/// a radix table routing into greedy shrinking-cone linear segments with a
/// configurable error bound ε — predicts, for any query key q, a position
/// among those keys. Two models share one radix geometry: the LOWER model is
/// fit on each distinct key's first occurrence (where lower_bound(key)
/// lands), the UPPER model on the first position AFTER each key's run
/// (where upper_bound(key) lands) — low-entropy alphabets make equal-key
/// runs thousands of entries long, and without the upper fit every
/// interval's right boundary would start a run-length gallop.
///
/// \par Equal-range search
/// FindInterval locates lb from the lower model's ≤2ε window: it verifies
/// that the window edges bracket the boundary (galloping outward when they
/// do not — see below), then finishes with a last-mile binary search that
/// uses word-at-a-time compares and Manber-Myers llcp/rlcp skipping so deep
/// probes never re-read bytes already known equal. Every lb probe also
/// tells which side of rb + 1 its suffix lies on, so the search keeps the
/// nearest probed suffix above the pattern and the farthest one the
/// pattern prefixes. rb + 1 is then a bare binary search between those two
/// verified fences, with no edge probes. Only a wide interval, whose lb
/// probes never passed it, takes the upper model's window instead.
///
/// \par ε contract
/// Each model's prediction is within ε positions of its boundary whenever
/// the query key occurs as a key. Queries between stored keys (and interval
/// boundaries strictly inside a run, for patterns longer than the packed
/// key depth) escape that bound. The last-mile search is therefore
/// self-correcting: before the windowed binary search it checks the window
/// edges and widens exponentially (galloping) when the boundary lies
/// outside. The model is purely an accelerator — FindInterval returns
/// byte-identical answers to FindSaInterval on every input, and degrades to
/// O(log n) probes, never to a wrong interval.
///
/// \par Storage
/// The model is position-only (no text/SA pointers), trivially serialized:
/// a 64-byte payload header, the two u32 radix tables, and the two models'
/// 24-byte (first_key, slope, intercept) segment arrays. Index format v3
/// carries the payload in an optional checksummed section; AdoptView serves
/// it straight out of the mmap the way FingerprintTable::AdoptView does.

#include <span>
#include <vector>

#include "usi/suffix/sa_search.hpp"
#include "usi/text/alphabet.hpp"
#include "usi/util/common.hpp"

namespace usi {

/// Default PLA error bound: ±32 positions keeps the last-mile window inside
/// one or two SA cache lines' worth of entries while the segment count stays
/// a small fraction of n.
inline constexpr u32 kDefaultLearnedEpsilon = 32;

/// How suffix prefixes map onto u64 keys: \p bits per symbol, \p chars
/// symbols per key, packed most-significant-first and left-aligned
/// (remainder bits zero). Symbols must fit in \p bits — texts store the
/// compact alphabet, so ForSigma's choice always does.
struct KeyPacking {
  u32 bits = 8;
  u32 chars = 8;

  /// Densest packing for an alphabet of \p sigma symbols: bits =
  /// ceil(log2(sigma)) (min 1), chars = 64 / bits.
  static KeyPacking ForSigma(u32 sigma);
  /// ForSigma over the text's largest symbol + 1 (one linear scan).
  static KeyPacking ForText(const Text& text);
};

/// Packs the first min(kp.chars, n - pos) symbols of the suffix at \p pos
/// into a u64 (zero-padded); non-strictly monotone in SA order.
u64 PackSuffixKey(const Text& text, index_t pos, const KeyPacking& kp);

/// PLA-bounded last-mile search over a suffix array.
class LearnedSa {
 public:
  struct Options {
    /// Error bound ε on the model's position predictions (the fit verifies
    /// every point against the stored double-precision coefficients and
    /// widens the recorded ε if rounding ever exceeds the target). 0
    /// disables the model entirely: Build leaves it empty.
    u32 epsilon = kDefaultLearnedEpsilon;
  };

  LearnedSa() = default;

  /// One linear segment: pred(q) = intercept + slope * (q - first_key).
  /// Keys are offset per segment before the double conversion, so the
  /// mantissa loss on a 2^64-wide axis never exceeds slope * key_ulp —
  /// fractions of one position.
  struct Segment {
    u64 first_key;
    double slope;
    double intercept;
  };
  static_assert(sizeof(Segment) == 24);

  /// Fits the model over \p sa (one deterministic sequential pass: key
  /// extraction + greedy shrinking-cone segmentation + radix table). An
  /// empty SA, or epsilon == 0, leaves the model empty.
  void Build(const Text& text, std::span<const index_t> sa,
             const Options& options);
  void Build(const Text& text, std::span<const index_t> sa) {
    Build(text, sa, Options{});
  }

  /// Whether the model holds no segments (Build not run, disabled, or
  /// adopted from an absent section). FindInterval on an empty model falls
  /// through to plain FindSaInterval.
  bool empty() const { return lower_.empty(); }

  /// The SA interval of all suffixes with \p pattern as a prefix —
  /// byte-identical to FindSaInterval(text, sa, pattern) on every input.
  SaInterval FindInterval(const Text& text, std::span<const index_t> sa,
                          std::span<const Symbol> pattern) const;

  /// Batched FindInterval: out[i] = FindInterval(patterns[i]) for every i.
  /// Up to 16 equal-range searches advance in lock-step rounds of three
  /// passes (the AMAC discipline of FingerprintTable::VisitBatch): every
  /// search picks its next probe and prefetches that SA slot, then loads
  /// the slot and prefetches the suffix bytes its compare reads first (past
  /// the min(llcp, rlcp) characters it skips), then compares. The SA and
  /// text misses of one round overlap across the group instead of stalling
  /// one search at a time.
  void FindIntervalBatch(const Text& text, std::span<const index_t> sa,
                         std::span<const std::span<const Symbol>> patterns,
                         std::span<SaInterval> out) const;

  /// Serializes the model payload (header + radix table + segments) into a
  /// deterministic byte image — what the v3 learned section stores.
  std::vector<u8> Serialize() const;

  /// Adopts a serialized payload in place (no copy); \p data must stay
  /// 8-byte aligned and outlive the model (an opened index keeps its file
  /// image alive via UsiIndex::image_). Returns false on a malformed
  /// payload; the model
  /// is left empty in that case.
  bool AdoptView(const u8* data, u64 length);

  /// Recorded error bound (>= the requested ε only if double rounding
  /// forced a widening; in practice equal to it).
  u32 epsilon() const { return epsilon_; }

  /// Key packing the model was fit with (recorded in the payload header).
  u32 key_bits() const { return packing_.bits; }
  u32 key_chars() const { return packing_.chars; }

  /// Number of linear segments (lower + upper model).
  u64 num_segments() const { return lower_.size() + upper_.size(); }

  /// SA length the model was fit over.
  u64 fit_n() const { return n_; }

  /// Payload bytes a Serialize() image occupies (== referenced bytes for an
  /// adopted view).
  std::size_t SizeInBytes() const;

 private:
  /// Clamped evaluation of one model (its radix table + segments): a
  /// position in [0, n] near that model's boundary for query key \p q.
  u64 Predict(std::span<const u32> radix, std::span<const Segment> segments,
              u64 q) const;

  /// Both models' predictions for \p pattern: \p plo near lb (lower model),
  /// \p phi near rb + 1 (upper model).
  void PredictInterval(std::span<const Symbol> pattern, u64* plo,
                       u64* phi) const;

  /// Expected window half-width used by the search paths (ε plus one slack
  /// position for the double-precision floor on evaluation).
  u64 Slack() const { return static_cast<u64>(epsilon_) + 1; }

  std::vector<u32> radix_lower_own_;
  std::vector<u32> radix_upper_own_;
  std::vector<Segment> lower_own_;
  std::vector<Segment> upper_own_;
  std::span<const u32> radix_lower_;
  std::span<const u32> radix_upper_;
  std::span<const Segment> lower_;
  std::span<const Segment> upper_;
  u64 n_ = 0;
  KeyPacking packing_;
  u64 min_key_ = 0;
  u64 max_key_ = 0;
  u32 shift_ = 0;  ///< bucket(q) = (q - min_key_) >> shift_.
  u32 epsilon_ = 0;
};

}  // namespace usi

#endif  // USI_SUFFIX_LEARNED_SA_HPP_
