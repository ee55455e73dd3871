#include "usi/suffix/learned_sa.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

namespace usi {
namespace {

/// Payload magic ("LSA1").
constexpr u32 kPayloadMagic = 0x4C534131;

/// Radix-table sizing: enough buckets that a bucket holds only a handful of
/// segments, capped so the table never dominates the model's footprint.
constexpr u32 kMaxRadixBits = 18;

/// The key fit prefetches suffix bytes only over an SA larger than this
/// (one core's L2 on the Xeon hosts measured): a 100k-symbol fit took
/// 1.65-1.83 ms with the prefetches and 1.38-1.45 ms without them, while a
/// 4M-symbol one fell from 169-201 to 103-104 ms with them.
constexpr std::size_t kFitPrefetchMinSaBytes = std::size_t{2} << 20;

/// Serialized payload header. Written and read raw; every field is
/// fixed-width and the struct is padded to a multiple of 8 so the segment
/// array that follows the (8-padded) radix table stays 8-byte aligned in
/// the mapped file.
struct PayloadHeader {
  u32 magic = kPayloadMagic;
  u32 epsilon = 0;
  u64 n = 0;
  u64 num_radix = 0;       ///< Shared by both radix tables.
  u64 num_segments = 0;    ///< Lower (first-occurrence) model.
  u64 min_key = 0;
  u64 max_key = 0;
  u32 shift = 0;
  u32 key_bits = 0;            ///< Bits per packed symbol; chars = 64 / bits.
  u64 num_upper_segments = 0;  ///< Upper (end-of-run) model.
};
static_assert(sizeof(PayloadHeader) == 64);

u64 ToBigEndian64(u64 raw) {
  if constexpr (std::endian::native == std::endian::little) {
    return __builtin_bswap64(raw);
  }
  return raw;
}

/// Pack of the first min(kp.chars, m) pattern symbols, plus the key of the
/// largest packed prefix still starting with the pattern: for
/// m >= kp.chars both collapse to one key; for shorter patterns the
/// pattern owns the key range [qlo, qhi] (its unset low bits run from
/// all-zero to all-one). A pattern symbol outside the packed alphabet
/// (possible — queries are arbitrary bytes, the text is compact-coded)
/// matches nothing; both seeds collapse onto the position past every
/// suffix sharing the preceding prefix, and the last-mile search confirms
/// the empty interval there.
void PatternKeyRange(std::span<const Symbol> pattern, const KeyPacking& kp,
                     u64* qlo, u64* qhi) {
  const u32 max_symbol = (u32{1} << kp.bits) - 1;
  const std::size_t take = std::min<std::size_t>(kp.chars, pattern.size());
  u64 key = 0;
  for (std::size_t j = 0; j < take; ++j) {
    if (pattern[j] > max_symbol) {
      if (j == 0) {
        *qlo = *qhi = ~u64{0};
        return;
      }
      const u32 rem = 64 - kp.bits * static_cast<u32>(j);
      *qlo = *qhi = (key << rem) | ((u64{1} << rem) - 1);
      return;
    }
    key = (key << kp.bits) | pattern[j];
  }
  const u32 rem = 64 - kp.bits * static_cast<u32>(take);
  key <<= rem;
  *qlo = key;
  *qhi = take == kp.chars ? key : key | ((u64{1} << rem) - 1);
}

/// Sign of suffix text[pos..) vs \p pattern on the first m characters
/// (0 = the pattern is a prefix of the suffix; an exhausted suffix sorts
/// below the pattern), plus the matched prefix length. The first \p skip
/// characters are known equal and never re-read (llcp/rlcp contract); the
/// rest compares word-at-a-time, locating the first mismatching byte with
/// one XOR + count-trailing-zeros instead of a byte loop.
struct SuffixCmp {
  int sign;
  std::size_t lcp;
};

SuffixCmp CompareSuffix(const Symbol* text, std::size_t n, index_t pos,
                        const Symbol* pattern, std::size_t m,
                        std::size_t skip) {
  const Symbol* s = text + pos;
  const std::size_t limit = std::min<std::size_t>(m, n - pos);
  std::size_t k = skip;
  while (k + 8 <= limit) {
    u64 a;
    u64 b;
    std::memcpy(&a, s + k, 8);
    std::memcpy(&b, pattern + k, 8);
    if (a != b) {
      const u64 diff = a ^ b;
      const std::size_t byte =
          std::endian::native == std::endian::little
              ? static_cast<std::size_t>(std::countr_zero(diff)) >> 3
              : static_cast<std::size_t>(std::countl_zero(diff)) >> 3;
      k += byte;
      return {s[k] < pattern[k] ? -1 : 1, k};
    }
    k += 8;
  }
  for (; k < limit; ++k) {
    if (s[k] != pattern[k]) return {s[k] < pattern[k] ? -1 : 1, k};
  }
  if (k < m) return {-1, k};  // Suffix exhausted: suffix < pattern.
  return {0, m};
}

/// One equal-range search over the suffix array, as a state machine that
/// asks for one SA probe at a time: FindInterval drives a single search in
/// a plain loop, FindIntervalBatch interleaves a group of them.
///
/// It locates lb (t = 0: the first i in [0, sa_n] with
/// CompareSuffix(sa[i]).sign >= 0), then rb + 1 (t = 1: the first i with
/// sign >= 1). Each boundary is a Manber-Myers binary search inside a
/// bracket [lo, hi] whose fences are verified: lo == 0 or sa[lo-1] left of
/// the boundary (llcp its matched length), hi == sa_n or sa[hi] right of it
/// (rlcp). A seeded window's unverified edges are probed first, galloping
/// outward with doubling steps when the boundary lies outside (the ε
/// contract's escape hatch); the leftward gallop stops at `floor`, the
/// leftmost slot the boundary can take. Probes inside the bracket skip min(llcp, rlcp)
/// characters: every suffix between two fences shares that prefix with the
/// pattern.
///
/// While locating lb it records the fences rb + 1 needs: ub, the smallest
/// probed slot above the pattern (sign > 0), and pm, one past the largest
/// probed slot the pattern prefixes (sign == 0). rb + 1 lies in
/// [max(first, pm), ub], both fences already compared, so the second
/// search is a bare binary search with no edge probes. Only when lb's
/// probes saw nothing above the pattern (a wide interval) does rb + 1 take
/// the upper model's window, with max(first, pm) as its floor: however far
/// a misleading prediction overshoots, the gallop lands on that verified
/// fence instead of passing it.
struct RangeSearch {
  enum Stage : u8 { kLeft, kRight, kBinary, kDone };
  static constexpr std::size_t kNoFence = ~std::size_t{0};

  const Symbol* p = nullptr;
  std::size_t m = 0;
  std::size_t sa_n = 0;
  u64 up_wlo = 0;  ///< Upper model's window, the rb + 1 fallback.
  u64 up_whi = 0;
  std::size_t floor = 0;  ///< sa[floor - 1] is left of the boundary.
  std::size_t lo = 0;
  std::size_t hi = 0;
  std::size_t llcp = 0;
  std::size_t rlcp = 0;
  u64 step = 1;
  std::size_t probe = 0;      ///< SA slot the next Apply answers.
  std::size_t first = 0;      ///< Resolved lb.
  std::size_t ub = kNoFence;  ///< Smallest probed slot above P.
  std::size_t ub_lcp = 0;
  std::size_t pm = 0;  ///< One past the largest probed slot P prefixes.
  u8 t = 0;            ///< Boundary being located: 0 = lb, 1 = rb + 1.
  Stage stage = kDone;
  bool right_ok = false;  ///< sa[hi] already compared right of it.

  /// Seeds the lb search from the lower model's prediction \p plo and the
  /// upper model's \p phi (each within \p slack of its boundary for a
  /// fitted key). A pattern longer than the packed key (\p past_key) can
  /// have lb anywhere inside its key's run, which only [plo, phi] is
  /// guaranteed to bracket; otherwise lb is the run's start and the tight
  /// lower window suffices.
  void Start(std::span<const Symbol> pattern, std::size_t n_sa, u64 plo,
             u64 phi, u64 slack, bool past_key) {
    p = pattern.data();
    m = pattern.size();
    sa_n = n_sa;
    up_wlo = phi > slack ? phi - slack : 0;
    up_whi = phi + slack;
    t = 0;
    first = 0;
    ub = kNoFence;
    ub_lcp = 0;
    pm = 0;
    const u64 lb_hi = past_key ? std::max(plo, phi) : plo;
    Open(plo > slack ? plo - slack : 0, lb_hi + slack, 0, 0);
  }

  /// Opens a boundary search on the window [wlo, whi], clipped below at
  /// \p floor_slot: floor_slot is 0 or sa[floor_slot - 1] is already known
  /// left of the boundary with lcp \p floor_lcp, so a window starting there
  /// needs no left edge probe. The right edge is trusted only at sa_n.
  void Open(u64 wlo, u64 whi, std::size_t floor_slot,
            std::size_t floor_lcp) {
    floor = floor_slot;
    lo = static_cast<std::size_t>(
        std::min<u64>(std::max<u64>(wlo, floor), sa_n));
    hi = static_cast<std::size_t>(std::min<u64>(whi, sa_n));
    llcp = floor_lcp;  // kLeft keeps it until a probe lands left.
    rlcp = 0;
    step = 1;
    right_ok = hi == sa_n;
    stage = lo == floor ? kRight : kLeft;
  }

  /// lb is resolved: opens the rb + 1 search on the fences the lb probes
  /// verified. The left fence is sa[pm-1] (P is its prefix, lcp m) when a
  /// match was probed, else sa[first-1] (llcp as the lb search left it).
  void OpenUpper() {
    first = lo;
    t = 1;
    const std::size_t left = std::max(first, pm);
    const std::size_t left_lcp = pm > first ? m : llcp;
    if (ub != kNoFence) {
      lo = left;
      hi = ub;
      llcp = left_lcp;
      rlcp = ub_lcp;
      stage = kBinary;
      return;
    }
    const u64 wlo = std::max<u64>(left, up_wlo);
    Open(wlo, std::max(wlo, up_whi), left, left_lcp);
  }

  /// Runs the probe-free transitions. Returns true with `probe` set when
  /// the search needs sa[probe] compared, false once it is done.
  bool Next() {
    for (;;) {
      switch (stage) {
        case kLeft:
          if (lo == floor) {
            stage = kRight;
            step = 1;
            continue;
          }
          probe = lo - 1;
          return true;
        case kRight:
          if (right_ok || hi == sa_n) {
            stage = kBinary;
            continue;
          }
          probe = hi;
          return true;
        case kBinary:
          if (lo < hi) {
            probe = lo + (hi - lo) / 2;
            return true;
          }
          if (t == 0) {
            OpenUpper();
            continue;
          }
          stage = kDone;
          return false;
        case kDone:
          return false;
      }
    }
  }

  /// Characters of sa[probe] known to match: only probes inside a
  /// verified bracket may skip.
  std::size_t Skip() const {
    return stage == kBinary ? std::min(llcp, rlcp) : 0;
  }

  /// Folds in the comparison of sa[probe] against the pattern.
  void Apply(const SuffixCmp& c) {
    if (t == 0) {
      if (c.sign > 0 && probe < ub) {
        ub = probe;
        ub_lcp = c.lcp;
      } else if (c.sign == 0) {
        pm = std::max(pm, probe + 1);
      }
    }
    const bool left_of = c.sign < t;
    switch (stage) {
      case kLeft:
        if (left_of) {
          llcp = c.lcp;
          stage = kRight;
          step = 1;
        } else {
          // The probe is right of the boundary: it becomes the right
          // fence and the window slides left, doubling, down to the floor.
          hi = lo - 1;
          rlcp = c.lcp;
          right_ok = true;
          lo = lo - floor > step ? lo - step : floor;
          step <<= 1;
        }
        break;
      case kRight:
        if (left_of) {
          lo = hi + 1;
          llcp = c.lcp;
          hi = std::min<std::size_t>(sa_n, hi + step);
          step <<= 1;
        } else {
          rlcp = c.lcp;
          stage = kBinary;
        }
        break;
      case kBinary:
        if (left_of) {
          lo = probe + 1;
          llcp = c.lcp;
        } else {
          hi = probe;
          rlcp = c.lcp;
        }
        break;
      case kDone:
        break;
    }
  }

  SaInterval Result() const {
    if (lo <= first) return SaInterval{};
    return SaInterval{static_cast<index_t>(first),
                      static_cast<index_t>(lo - 1)};
  }
};

}  // namespace

KeyPacking KeyPacking::ForSigma(u32 sigma) {
  const u32 bits = std::max<u32>(
      1, static_cast<u32>(std::bit_width(std::max(sigma, 1u) - 1)));
  return KeyPacking{bits, 64 / bits};
}

KeyPacking KeyPacking::ForText(const Text& text) {
  Symbol max_symbol = 0;
  for (const Symbol c : text) max_symbol = std::max(max_symbol, c);
  return ForSigma(static_cast<u32>(max_symbol) + 1);
}

namespace {

/// Eight text bytes at \p p as a big-endian word: the first symbol lands in
/// the most significant byte.
u64 LoadWord(const Symbol* p) {
  u64 raw;
  std::memcpy(&raw, p, 8);
  return ToBigEndian64(raw);
}

/// Packs suffix keys per a KeyPacking, eight symbols per 64-bit load.
///
/// Compress turns the 8 one-byte symbols of a big-endian word, each below
/// 2^bits, into the low 8 * bits bits, first symbol most significant, in
/// three SWAR halving steps: each lane of width L holds two fields of f
/// bits in its halves, and x = (x & lo) | ((x >> (L/2 - f)) & (lo << f))
/// joins them into one field of 2f bits at the lane's bottom, for L = 16,
/// 32, 64 and f = bits, 2 * bits, 4 * bits. Shifts and masks only: no
/// dependency chain from one symbol to the next.
class KeyPacker {
 public:
  explicit KeyPacker(const KeyPacking& kp)
      : kp_(kp),
        lo16_(((u64{1} << kp.bits) - 1) * 0x0001000100010001ULL),
        lo32_(((u64{1} << (2 * kp.bits)) - 1) * 0x0000000100000001ULL),
        lo64_((u64{1} << (4 * kp.bits)) - 1) {}

  /// PackSuffixKey over text[0, n).
  u64 Key(const Symbol* text, std::size_t n, std::size_t pos) const {
    USI_DCHECK(pos < n);
    if (pos + kp_.chars <= n) return Pack(text + pos);
    // Shorter than a key: one symbol at a time, zero-padded.
    const std::size_t take = n - pos;
    u64 key = 0;
    for (std::size_t j = 0; j < take; ++j) {
      USI_DCHECK(text[pos + j] < (u32{1} << kp_.bits));
      key = (key << kp_.bits) | text[pos + j];
    }
    return key << (64 - kp_.bits * static_cast<u32>(take));
  }

 private:
  u64 Compress(u64 x) const {
    const u32 b = kp_.bits;
    USI_DCHECK((x & ~(((u64{1} << b) - 1) * 0x0101010101010101ULL)) == 0);
    x = (x & lo16_) | ((x >> (8 - b)) & (lo16_ << b));
    x = (x & lo32_) | ((x >> (16 - 2 * b)) & (lo32_ << (2 * b)));
    x = (x & lo64_) | ((x >> (32 - 4 * b)) & (lo64_ << (4 * b)));
    return x;
  }

  /// The key of a suffix with at least kp_.chars symbols. chars = 64 / bits
  /// >= 8, so every load stays inside [p, p + chars): whole words first,
  /// then the last chars % 8 symbols from the word ending at p + chars.
  u64 Pack(const Symbol* p) const {
    const u32 b = kp_.bits;
    if (b == 8) return LoadWord(p);
    u64 key = 0;
    for (u32 w = 0; w < kp_.chars / 8; ++w) {
      key = (key << (8 * b)) | Compress(LoadWord(p + 8 * w));
    }
    if (const u32 tail_bits = (kp_.chars % 8) * b; tail_bits != 0) {
      key = (key << tail_bits) | (Compress(LoadWord(p + kp_.chars - 8)) &
                                  ((u64{1} << tail_bits) - 1));
    }
    return key << (64 - b * kp_.chars);
  }

  KeyPacking kp_;
  u64 lo16_;
  u64 lo32_;
  u64 lo64_;
};

}  // namespace

u64 PackSuffixKey(const Text& text, index_t pos, const KeyPacking& kp) {
  return KeyPacker(kp).Key(text.data(), text.size(), pos);
}

namespace {

/// Greedy shrinking-cone PLA fitter. The cone keeps the feasible slope
/// interval of a line anchored at the open segment's first point; a point
/// that empties it closes the segment and anchors the next one. Closing
/// verifies every covered point against the STORED coefficients with the
/// same arithmetic Predict uses, so the recorded ε stays honest even where
/// double rounding nudges a prediction past the cone's bound.
class ConeFitter {
 public:
  explicit ConeFitter(double eps) : eps_(eps) {}

  void Add(u64 x, u64 y) {
    if (seg_pts_.empty()) {
      Open(x, y);
      return;
    }
    const Pt& p0 = seg_pts_.front();
    const double dx = static_cast<double>(x - p0.x);
    const double dy = static_cast<double>(y) - static_cast<double>(p0.y);
    const double nlo = std::max(slope_lo_, (dy - eps_) / dx);
    const double nhi = std::min(slope_hi_, (dy + eps_) / dx);
    if (nlo > nhi) {
      Close();
      Open(x, y);
    } else {
      slope_lo_ = nlo;
      slope_hi_ = nhi;
      seg_pts_.push_back({x, y});
    }
  }

  void Finish() {
    if (!seg_pts_.empty()) Close();
  }

  std::vector<LearnedSa::Segment>& segments() { return segments_; }
  double max_err() const { return max_err_; }

 private:
  struct Pt {
    u64 x;
    u64 y;
  };

  void Open(u64 x, u64 y) {
    seg_pts_.assign(1, Pt{x, y});
    slope_lo_ = -std::numeric_limits<double>::infinity();
    slope_hi_ = std::numeric_limits<double>::infinity();
  }

  void Close() {
    const Pt& p0 = seg_pts_.front();
    const double slope =
        seg_pts_.size() == 1 ? 0.0 : 0.5 * (slope_lo_ + slope_hi_);
    const LearnedSa::Segment seg{p0.x, slope, static_cast<double>(p0.y)};
    for (const Pt& pt : seg_pts_) {
      const double pred =
          seg.intercept + seg.slope * static_cast<double>(pt.x - seg.first_key);
      const double err = std::fabs(pred - static_cast<double>(pt.y));
      if (err > max_err_) max_err_ = err;
    }
    segments_.push_back(seg);
    seg_pts_.clear();
  }

  double eps_;
  std::vector<Pt> seg_pts_;  // Points of the open segment, for verification.
  double slope_lo_ = 0;
  double slope_hi_ = 0;
  double max_err_ = 0;
  std::vector<LearnedSa::Segment> segments_;
};

/// radix[b] = first segment whose anchor key lands in bucket >= b, so a
/// lookup binary-searches only within one bucket's segments.
std::vector<u32> BuildRadix(const std::vector<LearnedSa::Segment>& segments,
                            u64 min_key, u32 shift, u64 num_buckets) {
  std::vector<u32> radix(static_cast<std::size_t>(num_buckets) + 1, 0);
  u64 b = 0;
  for (std::size_t s = 0; s < segments.size(); ++s) {
    const u64 sb = (segments[s].first_key - min_key) >> shift;
    while (b <= sb) radix[b++] = static_cast<u32>(s);
  }
  const u32 nseg = static_cast<u32>(segments.size());
  while (b <= num_buckets) radix[b++] = nseg;
  return radix;
}

}  // namespace

void LearnedSa::Build(const Text& text, std::span<const index_t> sa,
                      const Options& options) {
  *this = LearnedSa();
  if (sa.empty() || options.epsilon == 0) return;
  const u64 n = sa.size();
  const KeyPacking packing = KeyPacking::ForText(text);
  const double eps = static_cast<double>(options.epsilon);

  // One deterministic pass streams the distinct keys off the SA into both
  // fits: the lower model gets (key, first occurrence), the upper model
  // gets (key, first position after the key's run) — both x sequences are
  // identical, so the two models share the radix geometry below.
  ConeFitter lower_fit(eps);
  ConeFitter upper_fit(eps);
  // The suffix bytes a key packs are a random read per rank: over an SA
  // past the L2, each rank prefetches the first and last key byte of the
  // suffix kLead ranks ahead (clamped to the text), so those misses overlap
  // instead of stalling the fit one rank at a time.
  constexpr u64 kLead = 16;
  const u64 prefetch_end =
      n * sizeof(index_t) > kFitPrefetchMinSaBytes ? n - std::min(n, kLead) : 0;
  const Symbol* const text_p = text.data();
  const std::size_t text_n = text.size();
  const KeyPacker packer(packing);
  u64 prev_key = 0;
  bool have_prev = false;
  for (u64 i = 0; i < n; ++i) {
    if (i < prefetch_end) {
      const std::size_t ahead = sa[i + kLead];
      __builtin_prefetch(text_p + ahead);
      __builtin_prefetch(
          text_p + std::min(ahead + packing.chars - 1, text_n - 1));
    }
    const u64 key = packer.Key(text_p, text_n, sa[i]);
    USI_DCHECK(!have_prev || key >= prev_key);
    if (have_prev && key == prev_key) continue;
    if (have_prev) upper_fit.Add(prev_key, i);
    lower_fit.Add(key, i);
    prev_key = key;
    have_prev = true;
  }
  upper_fit.Add(prev_key, n);
  lower_fit.Finish();
  upper_fit.Finish();
  const std::vector<Segment>& lower = lower_fit.segments();
  const std::vector<Segment>& upper = upper_fit.segments();
  PayloadHeader header;
  header.epsilon = options.epsilon;
  const double max_err = std::max(lower_fit.max_err(), upper_fit.max_err());
  if (max_err > eps) {
    header.epsilon = static_cast<u32>(std::min<double>(
        std::ceil(max_err), std::numeric_limits<u32>::max()));
  }
  header.n = n;
  header.num_segments = lower.size();
  header.num_upper_segments = upper.size();
  header.min_key = lower.front().first_key;
  header.max_key = prev_key;
  header.key_bits = packing.bits;

  // Shared radix root: bucket(q) = (q - min_key) >> shift over the
  // populated key range, one table per model.
  const u64 range = header.max_key - header.min_key;
  const u32 range_bits = static_cast<u32>(std::bit_width(range | 1));
  const u32 want_bits = std::min<u32>(
      kMaxRadixBits,
      static_cast<u32>(std::bit_width(std::max(lower.size(), upper.size()))) +
          2);
  const u32 bits = std::min(std::max(want_bits, 1u), range_bits);
  header.shift = range_bits - bits;
  const u64 num_buckets = (range >> header.shift) + 1;
  const std::vector<u32> radix_lower =
      BuildRadix(lower, header.min_key, header.shift, num_buckets);
  const std::vector<u32> radix_upper =
      BuildRadix(upper, header.min_key, header.shift, num_buckets);
  header.num_radix = radix_lower.size();

  // The fit is served from its serialized payload, the bytes the v3
  // learned section stores. Layout: header | lower radix (8-padded) |
  // lower segments | upper radix (8-padded) | upper segments. Pad gaps stay
  // zero (vector value-init) — deterministic bytes.
  const std::size_t radix_bytes =
      (radix_lower.size() * sizeof(u32) + 7) & ~std::size_t{7};
  std::vector<u8> payload(sizeof(header) + 2 * radix_bytes +
                          (lower.size() + upper.size()) * sizeof(Segment));
  u8* out = payload.data();
  std::memcpy(out, &header, sizeof(header));
  out += sizeof(header);
  std::memcpy(out, radix_lower.data(), radix_lower.size() * sizeof(u32));
  out += radix_bytes;
  std::memcpy(out, lower.data(), lower.size() * sizeof(Segment));
  out += lower.size() * sizeof(Segment);
  std::memcpy(out, radix_upper.data(), radix_upper.size() * sizeof(u32));
  out += radix_bytes;
  std::memcpy(out, upper.data(), upper.size() * sizeof(Segment));
  USI_CHECK(AdoptView(payload.data(), payload.size()));
  payload_ = std::move(payload);  // Moving keeps the buffer the views see.
}

u64 LearnedSa::Predict(std::span<const u32> radix,
                       std::span<const Segment> segments, u64 q) const {
  if (q <= min_key_) return 0;
  if (q > max_key_) return n_;
  const u64 bucket = (q - min_key_) >> shift_;
  // Clamps rather than trusting the (possibly view-adopted) table blindly:
  // a corrupt radix entry can only mislead the prediction — which the
  // gallop correction absorbs — never read out of bounds.
  const std::size_t nseg = segments.size();
  const std::size_t b =
      std::min<std::size_t>(static_cast<std::size_t>(bucket),
                            radix.size() - 2);
  std::size_t lo = std::min<std::size_t>(radix[b], nseg);
  std::size_t hi = std::min<std::size_t>(radix[b + 1], nseg);
  if (hi < lo) hi = lo;
  // Last segment with first_key <= q (upper_bound - 1).
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (segments[mid].first_key <= q) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const Segment& seg = segments[lo == 0 ? 0 : lo - 1];
  const u64 dx = q >= seg.first_key ? q - seg.first_key : 0;
  double pred = seg.intercept + seg.slope * static_cast<double>(dx);
  // Clamp to the surrounding anchors. The ε bound only covers fitted keys;
  // a query key in the gap past a segment's last fitted point would
  // otherwise ride the line arbitrarily far (64-bit key gaps are huge), and
  // the gallop correction would pay log2(n) probes for what is actually a
  // position between this anchor and the next.
  if (pred < seg.intercept) pred = seg.intercept;
  if (lo < nseg && pred > segments[lo].intercept) {
    pred = segments[lo].intercept;
  }
  // The !(pred > 0) form also routes NaN (corrupt coefficients) to 0.
  if (!(pred > 0)) return 0;
  if (pred >= static_cast<double>(n_)) return n_;
  return static_cast<u64>(pred);
}

void LearnedSa::PredictInterval(std::span<const Symbol> pattern, u64* plo,
                                u64* phi) const {
  u64 qlo;
  u64 qhi;
  PatternKeyRange(pattern, packing_, &qlo, &qhi);
  *plo = Predict(radix_lower_, lower_, qlo);
  // The upper model predicts the first position past qhi's run — exactly
  // the rb + 1 boundary when the pattern fits in the packed key.
  *phi = Predict(radix_upper_, upper_, qhi);
}

SaInterval LearnedSa::FindInterval(const Text& text,
                                   std::span<const index_t> sa,
                                   std::span<const Symbol> pattern) const {
  if (sa.empty()) return SaInterval{};
  if (pattern.empty()) {
    return SaInterval{0, static_cast<index_t>(sa.size()) - 1};
  }
  if (pattern.size() > text.size()) return SaInterval{};
  if (empty()) return FindSaInterval(text, sa, pattern);
  USI_DCHECK(n_ == sa.size());

  u64 plo;
  u64 phi;
  PredictInterval(pattern, &plo, &phi);
  RangeSearch s;
  s.Start(pattern, sa.size(), plo, phi, Slack(),
          pattern.size() > packing_.chars);
  while (s.Next()) {
    s.Apply(CompareSuffix(text.data(), text.size(), sa[s.probe], s.p, s.m,
                          s.Skip()));
  }
  return s.Result();
}

void LearnedSa::FindIntervalBatch(
    const Text& text, std::span<const index_t> sa,
    std::span<const std::span<const Symbol>> patterns,
    std::span<SaInterval> out) const {
  USI_CHECK(out.size() >= patterns.size());
  if (empty() || sa.empty()) {
    for (std::size_t i = 0; i < patterns.size(); ++i) {
      out[i] = FindInterval(text, sa, patterns[i]);
    }
    return;
  }
  USI_DCHECK(n_ == sa.size());
  const Symbol* text_p = text.data();
  const std::size_t n = text.size();
  const index_t* sa_p = sa.data();
  const std::size_t sa_n = sa.size();

  // A group of kGroup searches advances in lock-step rounds of three
  // passes — pick probe + prefetch &sa[probe], load sa[probe] + prefetch
  // the suffix bytes the compare will read first, compare + update — so
  // the SA and text cache misses of one round overlap kGroup-wide instead
  // of stalling one search at a time.
  struct InFlight {
    RangeSearch s;
    u32 idx = 0;           ///< Index into patterns / out.
    index_t pos = 0;       ///< sa[s.probe], loaded in pass B.
    std::size_t skip = 0;  ///< s.Skip() for this round's compare.
  };
  constexpr std::size_t kGroup = 16;
  InFlight group[kGroup];

  for (std::size_t base = 0; base < patterns.size(); base += kGroup) {
    const std::size_t count = std::min(kGroup, patterns.size() - base);
    std::size_t live = 0;
    for (std::size_t g = 0; g < count; ++g) {
      const std::size_t i = base + g;
      const std::span<const Symbol> pattern = patterns[i];
      if (pattern.empty()) {
        out[i] = SaInterval{0, static_cast<index_t>(sa_n) - 1};
        continue;
      }
      if (pattern.size() > n) {
        out[i] = SaInterval{};
        continue;
      }
      InFlight& f = group[live++];
      f.idx = static_cast<u32>(i);
      u64 plo;
      u64 phi;
      PredictInterval(pattern, &plo, &phi);
      f.s.Start(pattern, sa_n, plo, phi, Slack(),
                pattern.size() > packing_.chars);
    }

    while (live > 0) {
      // Pass A: pick each search's next probe, prefetch the SA slot.
      std::size_t active = 0;
      for (std::size_t g = 0; g < live; ++g) {
        InFlight& f = group[g];
        if (!f.s.Next()) {
          out[f.idx] = f.s.Result();
          continue;
        }
        if (active != g) group[active] = f;
        __builtin_prefetch(sa_p + group[active++].s.probe);
      }
      live = active;
      // Pass B: load the (now resident) SA entry and prefetch where the
      // compare starts reading, past the skipped characters.
      for (std::size_t g = 0; g < live; ++g) {
        InFlight& f = group[g];
        f.pos = sa_p[f.s.probe];
        f.skip = f.s.Skip();
        __builtin_prefetch(text_p + f.pos + f.skip);
      }
      // Pass C: compare and update.
      for (std::size_t g = 0; g < live; ++g) {
        InFlight& f = group[g];
        f.s.Apply(CompareSuffix(text_p, n, f.pos, f.s.p, f.s.m, f.skip));
      }
    }
  }
}

bool LearnedSa::AdoptView(const u8* data, u64 length) {
  *this = LearnedSa();
  if (data == nullptr || length < sizeof(PayloadHeader)) return false;
  if ((reinterpret_cast<std::uintptr_t>(data) & 7) != 0) return false;
  PayloadHeader header;
  std::memcpy(&header, data, sizeof(header));
  if (header.magic != kPayloadMagic) return false;
  if (header.epsilon == 0 || header.num_segments == 0) return false;
  if (header.num_upper_segments == 0) return false;
  if (header.key_bits == 0 || header.key_bits > 8) return false;
  if (header.num_radix < 2 || header.shift >= 64) return false;
  if (header.min_key > header.max_key) return false;
  if (header.n == 0 || header.n > kInvalidIndex) return false;
  if (header.num_segments > header.n) return false;
  if (header.num_upper_segments > header.n) return false;
  // Geometry must account for every byte: a short or oversized payload is
  // corruption, not slack.
  const u64 radix_bytes = (header.num_radix * sizeof(u32) + 7) & ~u64{7};
  const u64 expected = sizeof(PayloadHeader) + 2 * radix_bytes +
                       header.num_segments * sizeof(Segment) +
                       header.num_upper_segments * sizeof(Segment);
  if (header.num_radix > (u64{1} << (kMaxRadixBits + 1)) ||
      expected != length) {
    return false;
  }
  n_ = header.n;
  epsilon_ = header.epsilon;
  packing_ = KeyPacking{header.key_bits, 64 / header.key_bits};
  min_key_ = header.min_key;
  max_key_ = header.max_key;
  shift_ = header.shift;
  const u8* p = data + sizeof(PayloadHeader);
  radix_lower_ = {reinterpret_cast<const u32*>(p),
                  static_cast<std::size_t>(header.num_radix)};
  p += radix_bytes;
  lower_ = {reinterpret_cast<const Segment*>(p),
            static_cast<std::size_t>(header.num_segments)};
  p += header.num_segments * sizeof(Segment);
  radix_upper_ = {reinterpret_cast<const u32*>(p),
                  static_cast<std::size_t>(header.num_radix)};
  p += radix_bytes;
  upper_ = {reinterpret_cast<const Segment*>(p),
            static_cast<std::size_t>(header.num_upper_segments)};
  bytes_ = {data, static_cast<std::size_t>(length)};
  return true;
}

}  // namespace usi
