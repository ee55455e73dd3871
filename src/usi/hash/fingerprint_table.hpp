#ifndef USI_HASH_FINGERPRINT_TABLE_HPP_
#define USI_HASH_FINGERPRINT_TABLE_HPP_

/// \file fingerprint_table.hpp
/// Open-addressing hash table keyed by (Karp-Rabin fingerprint, length).
///
/// This is the hash table H of USI_TOP-K (Section IV): key = fingerprint of a
/// top-K frequent substring, value = its precomputed global utility. The
/// paper keys by fingerprint alone; we add the pattern length to the key,
/// which eliminates collisions between substrings of different lengths for
/// free (DESIGN.md Section 5.3).
///
/// Layout vs. the paper's plain hash table H: the paper's description is a
/// textbook open-addressing table of records probed one slot at a time.
/// Storing the occupancy flag inline costs a full record read per probed
/// slot — the dominant query-time expense once H outgrows the fast cache
/// levels. We keep the paper's semantics but split the storage
/// SwissTable-style:
///
///   ctrl:     [ t | t | E | t | ... ]  1 byte per slot: 7-bit hash tag, or
///                                      E = empty (high bit set). Probed one
///                                      GROUP (16 slots under SSE2, 8 via
///                                      portable SWAR) per step.
///   entries:  [ (key, value) | ... ]   parallel record array, touched only
///                                      on a tag match.
///
/// A probe reads one group of control bytes and rejects all non-matching
/// slots by tag without ever loading their records; only tag matches (1/128
/// per occupied slot) read an entry. Keys and values stay adjacent in one
/// record — measurements showed that fully separate key/value arrays cost a
/// third dependent cache-line miss per hit and forfeit half the speedup, so
/// only the control bytes are split out (that is where the probe locality
/// lives). No deletion (the index is rebuilt, never shrunk) keeps probing
/// tombstone-free and lets the table run at a 7/8 max load factor — the
/// byte footprint is well under the old padded slots-with-flag layout at
/// 3/5 load. An index's table lives in its image, which asks for
/// transparent huge pages as a whole (util/mapped_file.hpp).
///
/// The slot/tag hash is a single Fibonacci multiply: Karp-Rabin
/// fingerprints are already uniform, so the full splitmix finalizer
/// (HashPatternKey, still used by the query caches and sketches) is wasted
/// work on this hot path. The index builder inserts H's entries in
/// canonical (len, fp) order into a table sized for exactly their count, so
/// the table's bytes are a pure function of its contents.

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "usi/hash/pattern_key.hpp"
#include "usi/util/common.hpp"
#include "usi/util/memory.hpp"

namespace usi {

/// Open-addressing map PatternKey -> V, tagged layout (see file header).
///
/// \par Storage backings
/// The table runs in one of two modes, serving identical answers:
///  * owning (default): ctrl + record arrays live in cache-aligned heap
///    vectors; all mutating operations are available.
///  * non-owning view (the view constructor): the arrays live in
///    externally managed read-only memory — a UsiIndex points them straight
///    into its v3 image — and only the read surface (Find, VisitBatch,
///    const ForEach, size/capacity) is usable; mutators abort via
///    USI_CHECK. The backing storage must outlive the table.
template <typename V>
class FingerprintTable {
 public:
  /// One record: key and value adjacent (see file header for why). Public
  /// because this is the unit of the serialized record array — index format
  /// v3 persists the records verbatim and views them in place.
  struct Slot {
    PatternKey key;
    V value{};
  };

  /// Slots inspected per probe step (one control-group load).
#if defined(__SSE2__)
  static constexpr std::size_t kGroupWidth = 16;
#else
  static constexpr std::size_t kGroupWidth = 8;
#endif

  /// Slot/tag hash: one Fibonacci multiply. Low bits pick the probe start,
  /// the top 7 bits are the control tag. Karp-Rabin fingerprints are
  /// uniform, so this distributes as well as the splitmix finalizer at a
  /// third of the cost; two keys whose (fp + len) coincide merely share a
  /// probe sequence and are separated by the full key comparison. Exposed
  /// so tests can construct keys with chosen probe starts and tags.
  static u64 SlotHash(const PatternKey& key) {
    return (key.fp + key.len) * 0x9E3779B97F4A7C15ULL;
  }

  FingerprintTable() { AllocateTable(kMinCapacity); }

  /// Pre-sizes for \p expected entries (avoids rehashing in construction).
  explicit FingerprintTable(std::size_t expected) {
    AllocateTable(CapacityFor(expected));
  }

  /// A non-owning view of read-only storage that outlives it: \p ctrl and
  /// \p slots hold bytes produced by ctrl_bytes()/slots() of an owning
  /// table with \p capacity slots and \p size entries.
  FingerprintTable(const u8* ctrl, const Slot* slots, std::size_t capacity,
                   std::size_t size)
      : ctrl_p_(ctrl),
        slots_p_(slots),
        mask_(capacity - 1),
        size_(size),
        view_(true) {
    USI_CHECK(capacity >= kMinCapacity &&
              (capacity & (capacity - 1)) == 0 &&
              size * kMaxLoadDen <= capacity * kMaxLoadNum);
  }

  /// The capacity a table pre-sized for \p expected entries starts with:
  /// the smallest power of two, at least kMinCapacity, that holds them
  /// under the 7/8 load factor.
  static std::size_t CapacityFor(std::size_t expected) {
    std::size_t capacity = kMinCapacity;
    while (capacity * kMaxLoadNum < expected * kMaxLoadDen) capacity <<= 1;
    return capacity;
  }

  // Moves keep the heap buffers, so the storage pointers stay valid; a copy
  // would probe its source's.
  FingerprintTable(FingerprintTable&&) noexcept = default;
  FingerprintTable& operator=(FingerprintTable&&) noexcept = default;

  /// Number of stored entries.
  std::size_t size() const { return size_; }

  /// Number of slots (power of two; grows when size exceeds 7/8 of it).
  std::size_t capacity() const { return mask_ + 1; }

  /// Whether the arrays are heap-owned (false for a view).
  bool OwnsStorage() const { return !view_; }

  /// The control-byte array, cloned tail included — the exact bytes a
  /// non-owning view must be given back. Valid in both modes.
  std::span<const u8> ctrl_bytes() const {
    return {ctrl_p_, capacity() + kGroupWidth};
  }

  /// The record array (capacity() slots; empty slots hold value-initialized
  /// records). Valid in both modes.
  std::span<const Slot> slots() const { return {slots_p_, capacity()}; }

  /// Inserts \p key with \p value if absent; returns pointer to the stored
  /// value either way. Probing for the key happens before any load-factor
  /// check, so re-inserting a present key never triggers a rehash; the
  /// failed probe already located the insert slot, so a fresh insert pays
  /// one probe walk, not two. Owning mode only.
  V* FindOrInsert(const PatternKey& key, const V& value) {
    USI_CHECK(!view_);
    const u64 h = SlotHash(key);
    std::size_t slot = 0;
    if (const V* existing = FindWithHash(key, h, &slot)) {
      return const_cast<V*>(existing);
    }
    if ((size_ + 1) * kMaxLoadDen > capacity() * kMaxLoadNum) {
      Rehash(capacity() * 2);
      return InsertFresh(key, value, h);  // The old probe slot is stale.
    }
    return PlaceAt(slot, key, value, h);
  }

  /// Returns the value for \p key, or nullptr if absent.
  V* Find(const PatternKey& key) {
    return const_cast<V*>(FindWithHash(key, SlotHash(key)));
  }

  const V* Find(const PatternKey& key) const {
    return FindWithHash(key, SlotHash(key));
  }

  /// Whether \p key is present.
  bool Contains(const PatternKey& key) const { return Find(key) != nullptr; }

  /// Batched lookup core: calls fn(i, Find(keys[i])) for every i, with the
  /// probes software-pipelined AMAC-style. Three stages run interleaved in
  /// one loop, each a fixed distance ahead of the next: stage A hashes
  /// key[i+24] and prefetches its control group, stage B probes the tags of
  /// key[i+12] and prefetches its candidate entry, stage C verifies the key
  /// and visits item i. Interleaving (rather than running each stage as its
  /// own pass) spaces the prefetches out so the CPU's page walkers and fill
  /// buffers keep up — back-to-back prefetch bursts get dropped exactly
  /// when they miss the TLB, which is every probe on a large table.
  /// Allocation-free (fixed ring state on the stack).
  template <typename Fn>
  void VisitBatch(std::span<const PatternKey> keys, Fn fn) const {
    constexpr std::size_t kHashLead = 24;   ///< Stage A runs this far ahead.
    constexpr std::size_t kProbeLead = 12;  ///< Stage B runs this far ahead.
    constexpr std::size_t kRing = 32;       ///< Power of two > kHashLead.
    const std::size_t n = keys.size();
    if (n < 2 * kHashLead) {
      for (std::size_t i = 0; i < n; ++i) fn(i, Find(keys[i]));
      return;
    }
    // Hoisted table state: the visitor is opaque to the compiler, so member
    // accesses inside the loop would otherwise reload every iteration.
    const u8* const ctrl = ctrl_p_;
    const Slot* const entries = slots_p_;
    const std::size_t mask = mask_;
    u64 h[kRing];
    u32 match[kRing];
    std::size_t slot[kRing];
    const auto stage_a = [&](std::size_t x) {
      const u64 hx = SlotHash(keys[x]);
      h[x & (kRing - 1)] = hx;
#if defined(__GNUC__) || defined(__clang__)
      __builtin_prefetch(ctrl + (hx & mask));
#endif
    };
    const auto stage_b = [&](std::size_t x) {
      const u64 hx = h[x & (kRing - 1)];
      const std::size_t pos = hx & mask;
      const u32 m = MatchLanes(ctrl + pos, TagOf(hx));
      match[x & (kRing - 1)] = m;
      // With no match this points one group ahead — a harmless prefetch.
      const std::size_t s =
          (pos + static_cast<std::size_t>(
                     std::countr_zero(m | (1u << kGroupWidth)))) &
          mask;
      slot[x & (kRing - 1)] = s;
#if defined(__GNUC__) || defined(__clang__)
      __builtin_prefetch(entries + s);
#endif
    };
    const auto stage_c = [&](std::size_t x) {
      // Overwhelmingly common: the lowest tag match in the first group is
      // the key (a lowest-lane SWAR false positive is impossible, and tag
      // collisions run 1/128 per occupied lane). Everything else — probe
      // continuation, collision, miss — takes the general loop.
      const std::size_t r = x & (kRing - 1);
      const V* value;
      if (match[r] != 0 && entries[slot[r]].key == keys[x]) [[likely]] {
        value = &entries[slot[r]].value;
      } else {
        value = FindWithHash(keys[x], h[r]);
      }
      fn(x, value);
    };
    for (std::size_t x = 0; x < kHashLead; ++x) stage_a(x);
    for (std::size_t x = 0; x < kProbeLead; ++x) stage_b(x);
    std::size_t i = 0;
    for (; i + kHashLead < n; ++i) {
      stage_a(i + kHashLead);
      stage_b(i + kProbeLead);
      stage_c(i);
    }
    for (; i < n; ++i) {
      if (i + kProbeLead < n) stage_b(i + kProbeLead);
      stage_c(i);
    }
  }

  /// Batched lookup: out[i] = Find(keys[i]) via VisitBatch.
  void FindBatch(std::span<const PatternKey> keys, const V** out) const {
    VisitBatch(keys, [out](std::size_t i, const V* value) { out[i] = value; });
  }

  /// Removes all entries, keeping the capacity. Owning mode only.
  void Clear() {
    USI_CHECK(!view_);
    std::fill(ctrl_.begin(), ctrl_.end(), kEmpty);
    size_ = 0;
  }

  /// Applies \p fn(key, value&) to every entry (unspecified order).
  /// Owning mode only — the mutable form would hand out references into
  /// read-only mapped memory.
  template <typename Fn>
  void ForEach(Fn fn) {
    USI_CHECK(!view_);
    for (std::size_t s = 0; s <= mask_; ++s) {
      if (ctrl_[s] != kEmpty) fn(entries_[s].key, entries_[s].value);
    }
  }

  template <typename Fn>
  void ForEach(Fn fn) const {
    for (std::size_t s = 0; s <= mask_; ++s) {
      if (ctrl_p_[s] != kEmpty) fn(slots_p_[s].key, slots_p_[s].value);
    }
  }

  /// Storage footprint in bytes: owned heap bytes, or — for a view — the
  /// logical size of the adopted arrays (file-backed pages the kernel
  /// shares across processes, but resident all the same once touched).
  std::size_t SizeInBytes() const {
    if (view_) {
      return (capacity() + kGroupWidth) * sizeof(u8) +
             capacity() * sizeof(Slot);
    }
    return ctrl_.capacity() * sizeof(u8) +
           entries_.capacity() * sizeof(Slot);
  }

  /// Capacity floor, the 7/8 max load factor and the empty control byte.
  /// Public because persisted table images (index format v3) record their
  /// capacity/size and loaders must re-validate the same invariants
  /// the view constructor enforces — without aborting on corrupt input.
  static constexpr std::size_t kMinCapacity = 16;
  static constexpr std::size_t kMaxLoadNum = 7;  // Load factor 7/8.
  static constexpr std::size_t kMaxLoadDen = 8;
  static constexpr u8 kEmpty = 0x80;  ///< High bit set; tags are 7-bit.

 private:

  /// 7-bit control tag from the hash's top bits.
  static u8 TagOf(u64 h) { return static_cast<u8>(h >> 57); }

  /// Bit-per-lane mask of control bytes equal to \p tag in the group at
  /// \p pos. The SWAR fallback may set spurious lanes ABOVE a true match
  /// (borrow propagation), never below and never without one — so the
  /// lowest set lane is always a true tag match, and callers filter the
  /// rest with the full key comparison.
  static u32 MatchLanes(const u8* group_start, u8 tag) {
#if defined(__SSE2__)
    const __m128i group =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(group_start));
    return static_cast<u32>(_mm_movemask_epi8(
        _mm_cmpeq_epi8(group, _mm_set1_epi8(static_cast<char>(tag)))));
#else
    u64 g;
    std::memcpy(&g, group_start, sizeof(g));
    const u64 x = g ^ (kLsbs * tag);
    return MsbsToLanes((x - kLsbs) & ~x & kMsbs);
#endif
  }

  /// Bit-per-lane mask of empty control bytes (exact: occupied bytes have
  /// the high bit clear).
  static u32 EmptyLanes(const u8* group_start) {
#if defined(__SSE2__)
    const __m128i group =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(group_start));
    return static_cast<u32>(_mm_movemask_epi8(group));
#else
    u64 g;
    std::memcpy(&g, group_start, sizeof(g));
    return MsbsToLanes(g & kMsbs);
#endif
  }

  static constexpr u64 kLsbs = 0x0101010101010101ULL;
  static constexpr u64 kMsbs = 0x8080808080808080ULL;

  /// Collapses 0x80 byte flags into one bit per lane (movemask emulation,
  /// used by the non-SSE2 fallback). Exact: the multiplier's exponents are
  /// 7k for k = 1..8, so lane j's bit 8j lands at 8j + 7(8-j) = 56 + j and
  /// nowhere else in the top byte, with no two partial products colliding
  /// (8j1 + 7k1 = 8j2 + 7k2 forces j1 = j2) — hence no carries. A k = 0
  /// term would alias lane 7 onto lane 0; the static_assert below checks
  /// all 256 lane subsets at compile time on every platform.
  static constexpr u32 MsbsToLanes(u64 msbs) {
    return static_cast<u32>(((msbs >> 7) * 0x0102040810204080ULL) >> 56);
  }

  static consteval bool VerifyMsbsToLanes() {
    for (u32 lanes = 0; lanes < 256; ++lanes) {
      u64 msbs = 0;
      for (int j = 0; j < 8; ++j) {
        if ((lanes >> j) & 1) msbs |= u64{0x80} << (8 * j);
      }
      if (MsbsToLanes(msbs) != lanes) return false;
    }
    return true;
  }
  static_assert(VerifyMsbsToLanes(),
                "SWAR movemask emulation must be exact for every lane subset");

  /// Probes for \p key. On a miss, \p insert_slot (when non-null) receives
  /// the slot where the key would be inserted — the first empty lane of the
  /// terminating group, i.e. exactly the slot InsertFresh would pick — so a
  /// failed find doubles as the insert probe.
  const V* FindWithHash(const PatternKey& key, u64 h,
                        std::size_t* insert_slot = nullptr) const {
    const u8* const ctrl = ctrl_p_;
    const Slot* const entries = slots_p_;
    const u8 tag = TagOf(h);
    std::size_t pos = h & mask_;
    while (true) {
      u32 m = MatchLanes(ctrl + pos, tag);
      while (m != 0) {
        const std::size_t s =
            (pos + static_cast<std::size_t>(std::countr_zero(m))) & mask_;
        if (entries[s].key == key) return &entries[s].value;
        m &= m - 1;
      }
      // No deletion => the probe chain for a stored key never crosses an
      // empty slot; an empty lane anywhere in the group ends the search.
      const u32 empty = EmptyLanes(ctrl + pos);
      if (empty != 0) {
        if (insert_slot != nullptr) {
          *insert_slot =
              (pos + static_cast<std::size_t>(std::countr_zero(empty))) &
              mask_;
        }
        return nullptr;
      }
      pos = (pos + kGroupWidth) & mask_;
    }
  }

  /// Writes \p key (known absent) into empty slot \p s of its probe chain.
  V* PlaceAt(std::size_t s, const PatternKey& key, const V& value, u64 h) {
    SetCtrl(s, TagOf(h));
    entries_[s].key = key;
    entries_[s].value = value;
    ++size_;
    return &entries_[s].value;
  }

  /// Places \p key (known absent, load already checked) in the first empty
  /// slot of its probe sequence.
  V* InsertFresh(const PatternKey& key, const V& value, u64 h) {
    std::size_t pos = h & mask_;
    while (true) {
      const u32 empty = EmptyLanes(ctrl_.data() + pos);
      if (empty != 0) {
        return PlaceAt(
            (pos + static_cast<std::size_t>(std::countr_zero(empty))) & mask_,
            key, value, h);
      }
      pos = (pos + kGroupWidth) & mask_;
    }
  }

  /// Writes a control byte, mirroring the first kGroupWidth slots into the
  /// cloned tail so group loads near the end wrap without branching.
  void SetCtrl(std::size_t s, u8 byte) {
    ctrl_[s] = byte;
    if (s < kGroupWidth) ctrl_[capacity() + s] = byte;
  }

  void AllocateTable(std::size_t new_capacity) {
    ctrl_ = CtrlArray(new_capacity + kGroupWidth, kEmpty);
    entries_ = EntryArray(new_capacity);
    // Value-initialization zeroes the members but not the struct padding
    // (after PatternKey::len and V's tail), and PlaceAt assigns members
    // only — so without this memset the padding would carry heap garbage
    // into the v3 record image, which persists slots verbatim and promises
    // byte-identical serialization for equal tables. Slot is trivially
    // copyable, so blanking the array and member-assigning later is defined.
    std::memset(static_cast<void*>(entries_.data()), 0,
                new_capacity * sizeof(Slot));
    ctrl_p_ = ctrl_.data();
    slots_p_ = entries_.data();
    mask_ = new_capacity - 1;
    size_ = 0;
    view_ = false;
  }

  void Rehash(std::size_t new_capacity) {
    CtrlArray old_ctrl = std::move(ctrl_);
    EntryArray old_entries = std::move(entries_);
    const std::size_t old_capacity = old_entries.size();
    AllocateTable(new_capacity);
    for (std::size_t s = 0; s < old_capacity; ++s) {
      if (old_ctrl[s] != kEmpty) {
        InsertFresh(old_entries[s].key, old_entries[s].value,
                    SlotHash(old_entries[s].key));
      }
    }
  }

  using CtrlArray = std::vector<u8, CacheAlignedAllocator<u8>>;
  using EntryArray = std::vector<Slot, CacheAlignedAllocator<Slot>>;

  CtrlArray ctrl_;      ///< capacity + kGroupWidth (cloned tail); owning mode.
  EntryArray entries_;  ///< Parallel to ctrl_[0..capacity); owning mode.
  /// Read-path storage pointers: into ctrl_/entries_ when owning, into the
  /// adopted backing when a view. Every probe goes through these, so both
  /// modes share one code path.
  const u8* ctrl_p_ = nullptr;
  const Slot* slots_p_ = nullptr;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  bool view_ = false;
};

}  // namespace usi

#endif  // USI_HASH_FINGERPRINT_TABLE_HPP_
