// Unit tests for src/usi/hash: Karp-Rabin fingerprints, fingerprint table,
// sketches, caches.

#include <unordered_set>

#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "usi/hash/caches.hpp"
#include "usi/hash/count_min_sketch.hpp"
#include "usi/hash/fingerprint_table.hpp"
#include "usi/hash/karp_rabin.hpp"

namespace usi {
namespace {

TEST(Mersenne61, AddSubInverse) {
  const u64 a = 123456789012345ULL;
  const u64 b = 987654321098765ULL;
  EXPECT_EQ(Mersenne61::Sub(Mersenne61::Add(a, b), b), a);
}

TEST(Mersenne61, MulMatchesSmallCases) {
  EXPECT_EQ(Mersenne61::Mul(3, 4), 12u);
  EXPECT_EQ(Mersenne61::Mul(Mersenne61::kPrime - 1, 1), Mersenne61::kPrime - 1);
  // (p-1)^2 mod p = 1.
  EXPECT_EQ(Mersenne61::Mul(Mersenne61::kPrime - 1, Mersenne61::kPrime - 1), 1u);
}

TEST(Mersenne61, PowMatchesRepeatedMul) {
  u64 x = 1;
  for (int e = 0; e < 20; ++e) {
    EXPECT_EQ(Mersenne61::Pow(7, e), x);
    x = Mersenne61::Mul(x, 7);
  }
}

TEST(KarpRabin, EqualStringsEqualFingerprints) {
  KarpRabinHasher hasher(1);
  const Text a = testing::T("abracadabra");
  const Text b = testing::T("abracadabra");
  EXPECT_EQ(hasher.Hash(a), hasher.Hash(b));
}

TEST(KarpRabin, DistinctShortStringsDistinct) {
  KarpRabinHasher hasher(2);
  std::unordered_set<u64> fps;
  // All 3-letter strings over a 10-letter alphabet: no collisions expected.
  for (int a = 0; a < 10; ++a) {
    for (int b = 0; b < 10; ++b) {
      for (int c = 0; c < 10; ++c) {
        Text t = {static_cast<Symbol>(a), static_cast<Symbol>(b),
                  static_cast<Symbol>(c)};
        fps.insert(hasher.Hash(t));
      }
    }
  }
  EXPECT_EQ(fps.size(), 1000u);
}

TEST(KarpRabin, PrefixFingerprintFragments) {
  KarpRabinHasher hasher(3);
  const Text text = testing::RandomText(500, 7, 42);
  PrefixFingerprints fps(text, hasher);
  Rng rng(9);
  for (int trial = 0; trial < 200; ++trial) {
    const index_t i = static_cast<index_t>(rng.UniformBelow(text.size()));
    const index_t len = static_cast<index_t>(
        rng.UniformInRange(1, text.size() - i));
    const Text fragment(text.begin() + i, text.begin() + i + len);
    EXPECT_EQ(fps.Fragment(i, len), hasher.Hash(fragment));
  }
}

TEST(KarpRabin, ConcatAndSuffixAlgebra) {
  KarpRabinHasher hasher(4);
  const Text left = testing::T("hello");
  const Text right = testing::T("world");
  Text both = left;
  both.insert(both.end(), right.begin(), right.end());
  const u64 fp_concat =
      hasher.Concat(hasher.Hash(left), hasher.Hash(right), right.size());
  EXPECT_EQ(fp_concat, hasher.Hash(both));
  EXPECT_EQ(hasher.SuffixOf(hasher.Hash(both), hasher.Hash(left), right.size()),
            hasher.Hash(right));
}

TEST(KarpRabin, RollingWindowMatchesDirectHash) {
  KarpRabinHasher hasher(5);
  const Text text = testing::RandomText(300, 4, 17);
  const index_t len = 7;
  RollingHasher window(hasher, len);
  for (index_t i = 0; i + 1 < len; ++i) window.Push(text[i]);
  for (index_t i = 0; i + len <= text.size(); ++i) {
    if (i == 0) {
      window.Push(text[len - 1]);
    } else {
      window.Roll(text[i - 1], text[i + len - 1]);
    }
    const Text fragment(text.begin() + i, text.begin() + i + len);
    ASSERT_EQ(window.Fingerprint(), hasher.Hash(fragment)) << "at " << i;
  }
}

/// base^k mod p by square-and-multiply over 128-bit remainders: an oracle
/// that shares no code with Mersenne61.
u64 ReferencePow(u64 base, u64 k) {
  using u128 = unsigned __int128;
  const u128 p = Mersenne61::kPrime;
  u128 result = 1;
  u128 square = base % p;
  for (; k > 0; k >>= 1) {
    if (k & 1) result = result * square % p;
    square = square * square % p;
  }
  return static_cast<u64>(result);
}

TEST(KarpRabin, PowIsBitIdenticalToThePowerTable) {
  // RollingHasher takes base^(w-1) from Mersenne61::Pow, the build path
  // used to take it from PowerOfBase: both must be the same fully reduced
  // residue, or fingerprints (and saved images) would change.
  const KarpRabinHasher hasher(6);
  for (u64 k = 0; k <= 4096; ++k) {
    ASSERT_EQ(Mersenne61::Pow(hasher.base(), k), hasher.PowerOfBase(k))
        << "k=" << k;
  }
  // Exponents up to 2^32 (any index_t window length). A power table that
  // long would take 32 GiB, so these check Pow against the independent
  // oracle and against the table through b^k = (b^4096)^(k/4096) * b^(k%4096).
  Rng rng(0x90E);
  for (int trial = 0; trial < 64; ++trial) {
    const u64 k = rng.UniformBelow(u64{1} << 32);
    const u64 pow = Mersenne61::Pow(hasher.base(), k);
    EXPECT_EQ(pow, ReferencePow(hasher.base(), k)) << "k=" << k;
    EXPECT_EQ(pow, Mersenne61::Mul(
                       Mersenne61::Pow(hasher.PowerOfBase(4096), k / 4096),
                       hasher.PowerOfBase(k % 4096)))
        << "k=" << k;
    EXPECT_LT(pow, Mersenne61::kPrime);
  }
}

TEST(KarpRabin, RollingWindowsMatchDirectHashAtEveryLength) {
  // A hasher rebuilt from its base (as an index load does) has computed no
  // powers; every window length must still roll to the direct fingerprint.
  const KarpRabinHasher hasher =
      KarpRabinHasher::FromBase(KarpRabinHasher(8).base());
  const Text text = testing::RandomText(400, 5, 23);
  for (index_t len = 1; len <= 300; ++len) {
    RollingHasher window(hasher, len);
    for (index_t i = 0; i + 1 < len; ++i) window.Push(text[i]);
    for (index_t i = 0; i + len <= text.size(); ++i) {
      if (i == 0) {
        window.Push(text[len - 1]);
      } else {
        window.Roll(text[i - 1], text[i + len - 1]);
      }
      ASSERT_EQ(window.Fingerprint(),
                hasher.Hash(std::span<const Symbol>(text.data() + i, len)))
          << "len=" << len << " at " << i;
    }
  }
}

TEST(KarpRabin, BlockHashMatchesHornerChain) {
  // Hash folds 8 symbols per modular step, then one 4-symbol step, then
  // single Appends; lengths 0..80 cover every 8/4/1 split. The texts put
  // the extreme symbols 0 and 255 in every block position, and the extreme
  // bases push the 128-bit block sums to their largest values.
  Text mixed = testing::RandomText(96, 256, 31);
  for (std::size_t i = 0; i < mixed.size(); i += 5) mixed[i] = 0;
  for (std::size_t i = 2; i < mixed.size(); i += 7) mixed[i] = 255;
  const std::vector<Text> texts = {mixed, Text(96, 0), Text(96, 255)};

  std::vector<KarpRabinHasher> hashers;
  for (u64 seed = 1; seed <= 4; ++seed) {
    hashers.emplace_back(seed);
    hashers.push_back(KarpRabinHasher::FromBase(hashers.back().base()));
  }
  for (u64 base : {u64{257}, Mersenne61::kPrime - 2, Mersenne61::kPrime - 1}) {
    hashers.push_back(KarpRabinHasher::FromBase(base));
  }
  for (const KarpRabinHasher& hasher : hashers) {
    for (std::size_t t = 0; t < texts.size(); ++t) {
      for (std::size_t offset : {std::size_t{0}, std::size_t{3}}) {
        for (std::size_t len = 0; len <= 80; ++len) {
          const std::span<const Symbol> s(texts[t].data() + offset, len);
          u64 chain = 0;
          for (Symbol c : s) chain = hasher.Append(chain, c);
          ASSERT_EQ(hasher.Hash(s), chain)
              << "base=" << hasher.base() << " text=" << t
              << " offset=" << offset << " len=" << len;
        }
      }
    }
  }
}

TEST(KarpRabin, FingerprintsArePinned) {
  // Saved tables key H by these values: a kernel that changed them would
  // turn every stored image's hits into misses. Computed by the
  // per-symbol Horner chain under the default UsiOptions::hash_seed.
  const KarpRabinHasher hasher(0x05111);
  EXPECT_EQ(hasher.base(), 629855516094832853ULL);
  EXPECT_EQ(hasher.Hash(testing::T("")), 0u);
  EXPECT_EQ(hasher.Hash(testing::T("a")), 0x0000000000000062ULL);
  EXPECT_EQ(hasher.Hash(testing::T("banana")), 0x0083b46e696e2ba0ULL);
  EXPECT_EQ(hasher.Hash(testing::T("abracadabra")), 0x1588022e954053d0ULL);
  EXPECT_EQ(hasher.Hash(testing::T("the quick brown fox jumps over it!")),
            0x0df94fb5dd0d90ebULL);
  EXPECT_EQ(hasher.Hash(testing::T(
                "utility-weighted strings: index them all, then query fast")),
            0x07db483bc7f55dfcULL);
  Text ramp;
  for (int i = 0; i < 70; ++i) ramp.push_back(static_cast<Symbol>(i * 37));
  ramp[0] = 0;
  ramp[1] = 255;
  ramp[69] = 255;
  EXPECT_EQ(hasher.Hash(ramp), 0x19da5121ebe4366dULL);
  EXPECT_EQ(hasher.Hash(Text(19, 0)), 0x06d73d07d53f995dULL);
  EXPECT_EQ(hasher.Hash(Text(23, 255)), 0x098915d1f2768725ULL);
}

TEST(KarpRabin, DifferentSeedsDifferentBases) {
  KarpRabinHasher a(1);
  KarpRabinHasher b(2);
  EXPECT_NE(a.base(), b.base());
}

TEST(FingerprintTable, InsertFindRoundTrip) {
  FingerprintTable<double> table;
  table.FindOrInsert(PatternKey{111, 5}, 1.5);
  table.FindOrInsert(PatternKey{222, 5}, 2.5);
  table.FindOrInsert(PatternKey{111, 6}, 3.5);  // Same fp, other length.
  ASSERT_NE(table.Find(PatternKey{111, 5}), nullptr);
  EXPECT_DOUBLE_EQ(*table.Find(PatternKey{111, 5}), 1.5);
  EXPECT_DOUBLE_EQ(*table.Find(PatternKey{222, 5}), 2.5);
  EXPECT_DOUBLE_EQ(*table.Find(PatternKey{111, 6}), 3.5);
  EXPECT_EQ(table.Find(PatternKey{333, 5}), nullptr);
  EXPECT_EQ(table.size(), 3u);
}

TEST(FingerprintTable, FindOrInsertReturnsExisting) {
  FingerprintTable<int> table;
  int* first = table.FindOrInsert(PatternKey{7, 1}, 10);
  int* second = table.FindOrInsert(PatternKey{7, 1}, 99);
  EXPECT_EQ(first, second);
  EXPECT_EQ(*second, 10);  // Original value kept.
}

TEST(FingerprintTable, SurvivesRehashing) {
  FingerprintTable<u64> table;
  Rng rng(13);
  std::vector<PatternKey> keys;
  for (u64 i = 0; i < 5000; ++i) {
    PatternKey key{rng.Next() % Mersenne61::kPrime,
                   static_cast<u32>(rng.UniformInRange(1, 100))};
    keys.push_back(key);
    table.FindOrInsert(key, i);
  }
  for (u64 i = 0; i < keys.size(); ++i) {
    auto* value = table.Find(keys[i]);
    ASSERT_NE(value, nullptr);
    EXPECT_EQ(*value, i);
  }
}

TEST(FingerprintTable, ClearEmptiesButKeepsWorking) {
  FingerprintTable<int> table;
  table.FindOrInsert(PatternKey{1, 1}, 1);
  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.Find(PatternKey{1, 1}), nullptr);
  table.FindOrInsert(PatternKey{2, 2}, 2);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FingerprintTable, ForEachVisitsAll) {
  FingerprintTable<int> table;
  for (u64 i = 1; i <= 100; ++i) {
    table.FindOrInsert(PatternKey{i, static_cast<u32>(i)}, static_cast<int>(i));
  }
  int sum = 0;
  table.ForEach([&](const PatternKey&, int& v) { sum += v; });
  EXPECT_EQ(sum, 5050);
}

TEST(CountMinSketch, NeverUnderestimates) {
  CountMinSketch sketch(256, 4);
  Rng rng(21);
  std::vector<std::pair<u64, u32>> items;
  for (int i = 0; i < 100; ++i) {
    const u64 key = rng.Next();
    const u32 count = static_cast<u32>(rng.UniformInRange(1, 50));
    items.push_back({key, count});
    sketch.Add(key, count);
  }
  for (const auto& [key, count] : items) {
    EXPECT_GE(sketch.Estimate(key), count);
  }
}

TEST(CountMinSketch, AccurateWhenSparse) {
  CountMinSketch sketch(4096, 4);
  sketch.Add(42, 7);
  EXPECT_EQ(sketch.Estimate(42), 7u);
  EXPECT_EQ(sketch.Estimate(43), 0u);
}

TEST(DecaySketch, TracksHeavyHitter) {
  DecaySketch sketch(64, 2);
  for (int i = 0; i < 1000; ++i) {
    sketch.Insert(7777);
    if (i % 10 == 0) sketch.Insert(1234);  // Light item.
  }
  EXPECT_GT(sketch.Estimate(7777), sketch.Estimate(1234));
  EXPECT_GT(sketch.Estimate(7777), 500u);
}

TEST(DecaySketch, ColdItemDoesNotEvictHot) {
  DecaySketch sketch(1, 1);  // Force every key into one bucket.
  for (int i = 0; i < 500; ++i) sketch.Insert(1);
  sketch.Insert(2);  // One cold insert: decay chance b^-500, ~impossible.
  EXPECT_GT(sketch.Estimate(1), 400u);
  EXPECT_EQ(sketch.Estimate(2), 0u);
}

TEST(DecaySketch, ResetMatchesAFreshSketch) {
  // Power-of-two (masked) and other (modulo) widths alike: after Reset the
  // sketch must behave exactly like a new one built with the same
  // arguments — same buckets, same decay coin sequence.
  for (const std::size_t width : {64u, 100u}) {
    DecaySketch reused(width, 2, 1.08, 0xF00D);
    Rng rng(0x5E7);
    for (int i = 0; i < 5'000; ++i) reused.Insert(rng.UniformBelow(300));
    reused.Reset();
    DecaySketch fresh(width, 2, 1.08, 0xF00D);
    for (u64 key = 0; key < 300; ++key) {
      ASSERT_EQ(reused.Estimate(key), 0u) << "width " << width;
    }
    for (int i = 0; i < 5'000; ++i) {
      const u64 key = rng.UniformBelow(300);
      ASSERT_EQ(reused.Insert(key), fresh.Insert(key))
          << "width " << width << " insert " << i;
    }
    for (u64 key = 0; key < 300; ++key) {
      EXPECT_EQ(reused.Estimate(key), fresh.Estimate(key)) << "width " << width;
    }
  }
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCache cache(2);
  cache.Put(PatternKey{1, 1}, 1.0);
  cache.Put(PatternKey{2, 1}, 2.0);
  double out = 0;
  EXPECT_TRUE(cache.Get(PatternKey{1, 1}, &out));  // 1 is now most recent.
  cache.Put(PatternKey{3, 1}, 3.0);                // Evicts 2.
  EXPECT_FALSE(cache.Get(PatternKey{2, 1}, &out));
  EXPECT_TRUE(cache.Get(PatternKey{1, 1}, &out));
  EXPECT_DOUBLE_EQ(out, 1.0);
  EXPECT_TRUE(cache.Get(PatternKey{3, 1}, &out));
}

TEST(LruCache, PutRefreshesValue) {
  LruCache cache(2);
  cache.Put(PatternKey{1, 1}, 1.0);
  cache.Put(PatternKey{1, 1}, 9.0);
  double out = 0;
  EXPECT_TRUE(cache.Get(PatternKey{1, 1}, &out));
  EXPECT_DOUBLE_EQ(out, 9.0);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(LruCache, StressAgainstMap) {
  LruCache cache(64);
  Rng rng(77);
  for (int op = 0; op < 5000; ++op) {
    const PatternKey key{rng.UniformBelow(200), 1};
    double out;
    if (!cache.Get(key, &out)) {
      cache.Put(key, static_cast<double>(key.fp));
    } else {
      EXPECT_DOUBLE_EQ(out, static_cast<double>(key.fp));
    }
    EXPECT_LE(cache.size(), 64u);
  }
}

TEST(LfuCache, AdmitsOnlyPopularWhenFull) {
  LfuCache cache(2);
  cache.Offer(PatternKey{1, 1}, 5, 1.0);
  cache.Offer(PatternKey{2, 1}, 3, 2.0);
  // Count 2 does not beat the min (3): rejected.
  cache.Offer(PatternKey{3, 1}, 2, 3.0);
  double out;
  EXPECT_FALSE(cache.Get(PatternKey{3, 1}, &out));
  // Count 4 beats min 3: replaces key 2.
  cache.Offer(PatternKey{3, 1}, 4, 3.0);
  EXPECT_TRUE(cache.Get(PatternKey{3, 1}, &out));
  EXPECT_FALSE(cache.Get(PatternKey{2, 1}, &out));
  EXPECT_TRUE(cache.Get(PatternKey{1, 1}, &out));
}

TEST(LfuCache, CountUpdatesKeepHeapConsistent) {
  LfuCache cache(3);
  cache.Offer(PatternKey{1, 1}, 1, 1.0);
  cache.Offer(PatternKey{2, 1}, 2, 2.0);
  cache.Offer(PatternKey{3, 1}, 3, 3.0);
  // Raise key 1's count; now key 2 is the min and should be evicted next.
  cache.Offer(PatternKey{1, 1}, 10, 1.0);
  cache.Offer(PatternKey{4, 1}, 5, 4.0);
  double out;
  EXPECT_FALSE(cache.Get(PatternKey{2, 1}, &out));
  EXPECT_TRUE(cache.Get(PatternKey{1, 1}, &out));
  EXPECT_TRUE(cache.Get(PatternKey{3, 1}, &out));
  EXPECT_TRUE(cache.Get(PatternKey{4, 1}, &out));
}

}  // namespace
}  // namespace usi
