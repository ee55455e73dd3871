// Unit tests for src/usi/util: rng, radix sort, memory, tables.

#include <algorithm>
#include <numeric>

#include <gtest/gtest.h>

#include "usi/util/memory.hpp"
#include "usi/util/radix_sort.hpp"
#include "usi/util/rng.hpp"
#include "usi/util/table_printer.hpp"

namespace usi {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformBelowStaysInRange) {
  Rng rng(7);
  for (u64 bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, (1ULL << 40)}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.UniformBelow(bound), bound);
  }
}

TEST(Rng, UniformBelowCoversAllResidues) {
  Rng rng(11);
  bool seen[5] = {};
  for (int i = 0; i < 500; ++i) seen[rng.UniformBelow(5)] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Rng, UniformInRangeInclusive) {
  Rng rng(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const u64 v = rng.UniformInRange(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    saw_lo |= (v == 5);
    saw_hi |= (v == 8);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.UniformDouble();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, MixIsDeterministic) {
  EXPECT_EQ(Rng::Mix(123, 456), Rng::Mix(123, 456));
  EXPECT_NE(Rng::Mix(123, 456), Rng::Mix(123, 457));
}

TEST(RadixSort, MatchesStdSortOnRandomKeys) {
  Rng rng(17);
  for (int round = 0; round < 10; ++round) {
    std::vector<u64> values(500);
    for (auto& v : values) v = rng.UniformBelow(1'000'000);
    std::vector<u64> expected = values;
    std::sort(expected.begin(), expected.end());
    RadixSortByKey(&values, 1'000'000, [](u64 v) { return v; });
    EXPECT_EQ(values, expected);
  }
}

TEST(RadixSort, DescendingOrder) {
  Rng rng(23);
  std::vector<u32> values(300);
  for (auto& v : values) v = static_cast<u32>(rng.UniformBelow(10'000));
  std::vector<u32> expected = values;
  std::sort(expected.rbegin(), expected.rend());
  RadixSortByKeyDescending(&values, 10'000, [](u32 v) { return u64{v}; });
  EXPECT_EQ(values, expected);
}

TEST(RadixSort, StableOnEqualKeys) {
  struct Item {
    u32 key;
    u32 tag;
  };
  std::vector<Item> items;
  for (u32 tag = 0; tag < 100; ++tag) items.push_back({tag % 5, tag});
  RadixSortByKey(&items, 5, [](const Item& i) { return u64{i.key}; });
  for (std::size_t i = 1; i < items.size(); ++i) {
    if (items[i - 1].key == items[i].key) {
      EXPECT_LT(items[i - 1].tag, items[i].tag);  // Stability preserved.
    }
  }
}

TEST(RadixSort, HandlesEmptyAndSingle) {
  std::vector<u64> empty;
  RadixSortByKey(&empty, 10, [](u64 v) { return v; });
  EXPECT_TRUE(empty.empty());
  std::vector<u64> one = {42};
  RadixSortByKey(&one, 100, [](u64 v) { return v; });
  EXPECT_EQ(one[0], 42u);
}

TEST(RadixSort, LargeKeyBound) {
  Rng rng(31);
  std::vector<u64> values(200);
  const u64 bound = u64{1} << 50;
  for (auto& v : values) v = rng.UniformBelow(bound);
  std::vector<u64> expected = values;
  std::sort(expected.begin(), expected.end());
  RadixSortByKey(&values, bound, [](u64 v) { return v; });
  EXPECT_EQ(values, expected);
}

TEST(Memory, PeakRssReadable) {
  EXPECT_GT(ReadPeakRssBytes(), 0u);
  EXPECT_GT(ReadCurrentRssBytes(), 0u);
}

TEST(Memory, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512.00 B");
  EXPECT_EQ(FormatBytes(2048), "2.00 KB");
  EXPECT_EQ(FormatBytes(3 * 1024 * 1024), "3.00 MB");
}

TEST(TablePrinter, FormatsNumbers) {
  EXPECT_EQ(TablePrinter::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Int(1234567), "1,234,567");
  EXPECT_EQ(TablePrinter::Int(-42), "-42");
  EXPECT_EQ(TablePrinter::Int(999), "999");
}

}  // namespace
}  // namespace usi
