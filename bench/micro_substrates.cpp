// Google-benchmark microbenchmarks for the substrates: suffix-array
// construction, Karp-Rabin hashing (prefix tables, query patterns, rolling
// windows), the fingerprint table vs std::unordered_map, LCE backends, and
// RMQ.

#include <unordered_map>

#include <benchmark/benchmark.h>

#include "usi/hash/fingerprint_table.hpp"
#include "usi/hash/karp_rabin.hpp"
#include "usi/suffix/lce.hpp"
#include "usi/suffix/lcp_array.hpp"
#include "usi/suffix/rmq.hpp"
#include "usi/suffix/suffix_array.hpp"
#include "usi/text/generators.hpp"
#include "usi/util/rng.hpp"

namespace usi {
namespace {

const Text& BenchText(index_t n) {
  static const Text text = MakeDnaLike(1 << 20, 42).text();
  static Text slice;
  slice.assign(text.begin(), text.begin() + n);
  return slice;
}

void BM_SuffixArraySais(benchmark::State& state) {
  const Text text = Text(BenchText(static_cast<index_t>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildSuffixArray(text));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SuffixArraySais)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 19);

void BM_SuffixArrayDoubling(benchmark::State& state) {
  const Text text = Text(BenchText(static_cast<index_t>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildSuffixArrayDoubling(text));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SuffixArrayDoubling)->Arg(1 << 14)->Arg(1 << 17);

void BM_LcpKasai(benchmark::State& state) {
  const Text text = Text(BenchText(static_cast<index_t>(state.range(0))));
  const auto sa = BuildSuffixArray(text);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildLcpArray(text, sa));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LcpKasai)->Arg(1 << 17)->Arg(1 << 19);

void BM_KarpRabinPrefixBuild(benchmark::State& state) {
  const Text text = Text(BenchText(static_cast<index_t>(state.range(0))));
  const KarpRabinHasher hasher(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PrefixFingerprints(text, hasher));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KarpRabinPrefixBuild)->Arg(1 << 17)->Arg(1 << 20);

/// Query-pattern fingerprinting: KarpRabinHasher::Hash (block Horner, one
/// modular multiply per 8 symbols) over patterns of state.range(0) symbols
/// drawn from a cache-resident text. BM_KarpRabinAppendChain is the
/// per-symbol Append chain it replaces, kept as the reference.
template <bool kBlock>
void KarpRabinPatterns(benchmark::State& state) {
  const Text text = Text(BenchText(1 << 16));
  const KarpRabinHasher hasher(1);
  const std::size_t len = static_cast<std::size_t>(state.range(0));
  const std::size_t starts = text.size() - len;
  std::size_t start = 0;
  for (auto _ : state) {
    const std::span<const Symbol> pattern(text.data() + start, len);
    if constexpr (kBlock) {
      benchmark::DoNotOptimize(hasher.Hash(pattern));
    } else {
      u64 fp = 0;
      for (Symbol c : pattern) fp = hasher.Append(fp, c);
      benchmark::DoNotOptimize(fp);
    }
    start += 61;
    if (start >= starts) start -= starts;
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * state.range(0));
}

void BM_KarpRabinHash(benchmark::State& state) {
  KarpRabinPatterns<true>(state);
}
BENCHMARK(BM_KarpRabinHash)->Arg(8)->Arg(16)->Arg(35)->Arg(64);

void BM_KarpRabinAppendChain(benchmark::State& state) {
  KarpRabinPatterns<false>(state);
}
BENCHMARK(BM_KarpRabinAppendChain)->Arg(8)->Arg(16)->Arg(35)->Arg(64);

void BM_RollingWindow(benchmark::State& state) {
  const Text text = Text(BenchText(1 << 18));
  const KarpRabinHasher hasher(1);
  const index_t len = static_cast<index_t>(state.range(0));
  for (auto _ : state) {
    RollingHasher window(hasher, len);
    for (index_t i = 0; i + 1 < len; ++i) window.Push(text[i]);
    u64 sum = 0;
    for (index_t i = 0; i + len <= text.size(); ++i) {
      if (i == 0) {
        window.Push(text[len - 1]);
      } else {
        window.Roll(text[i - 1], text[i + len - 1]);
      }
      sum ^= window.Fingerprint();
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * text.size());
}
BENCHMARK(BM_RollingWindow)->Arg(8)->Arg(64)->Arg(512);

void BM_FingerprintTableLookup(benchmark::State& state) {
  FingerprintTable<double> table(1 << 16);
  Rng rng(3);
  std::vector<PatternKey> keys;
  for (int i = 0; i < (1 << 16); ++i) {
    const PatternKey key{rng.Next() % Mersenne61::kPrime,
                         static_cast<u32>(rng.UniformInRange(1, 64))};
    keys.push_back(key);
    table.FindOrInsert(key, 1.0);
  }
  std::size_t cursor = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Find(keys[cursor++ & 0xFFFF]));
  }
}
BENCHMARK(BM_FingerprintTableLookup);

void BM_StdUnorderedMapLookup(benchmark::State& state) {
  std::unordered_map<u64, double> table;
  Rng rng(3);
  std::vector<u64> keys;
  for (int i = 0; i < (1 << 16); ++i) {
    keys.push_back(rng.Next());
    table.emplace(keys.back(), 1.0);
  }
  std::size_t cursor = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.find(keys[cursor++ & 0xFFFF]));
  }
}
BENCHMARK(BM_StdUnorderedMapLookup);

template <typename Oracle>
void LceBench(benchmark::State& state, const Oracle& oracle, index_t n) {
  Rng rng(5);
  for (auto _ : state) {
    const index_t i = static_cast<index_t>(rng.UniformBelow(n));
    const index_t j = static_cast<index_t>(rng.UniformBelow(n));
    benchmark::DoNotOptimize(oracle.Lce(i, j));
  }
}

void BM_LceNaive(benchmark::State& state) {
  const Text& text = BenchText(1 << 18);
  NaiveLce oracle(text);
  LceBench(state, oracle, 1 << 18);
}
BENCHMARK(BM_LceNaive);

void BM_LceRmq(benchmark::State& state) {
  const Text& text = BenchText(1 << 18);
  RmqLce oracle(text);
  LceBench(state, oracle, 1 << 18);
}
BENCHMARK(BM_LceRmq);

void BM_LceSampledKr(benchmark::State& state) {
  const Text& text = BenchText(1 << 18);
  KarpRabinHasher hasher(1);
  SampledKrLce oracle(text, hasher, static_cast<index_t>(state.range(0)));
  LceBench(state, oracle, 1 << 18);
}
BENCHMARK(BM_LceSampledKr)->Arg(4)->Arg(16)->Arg(64);

void BM_RangeMinQuery(benchmark::State& state) {
  Rng rng(7);
  std::vector<index_t> values(1 << 18);
  for (auto& v : values) v = static_cast<index_t>(rng.UniformBelow(1 << 20));
  RangeMin rmq(values);
  for (auto _ : state) {
    std::size_t l = rng.UniformBelow(values.size());
    std::size_t r = rng.UniformBelow(values.size());
    if (l > r) std::swap(l, r);
    benchmark::DoNotOptimize(rmq.Min(l, r));
  }
}
BENCHMARK(BM_RangeMinQuery);

}  // namespace
}  // namespace usi

BENCHMARK_MAIN();
