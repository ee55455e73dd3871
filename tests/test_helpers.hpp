#ifndef USI_TESTS_TEST_HELPERS_HPP_
#define USI_TESTS_TEST_HELPERS_HPP_

/// \file test_helpers.hpp
/// Brute-force oracles shared by the test suite. Everything here is the
/// obviously-correct O(n^2)-ish implementation the real structures are
/// checked against — plus BuildWithMiner, the UET/UAT switch of the suites
/// that run both.

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "usi/core/usi_builder.hpp"
#include "usi/core/utility.hpp"
#include "usi/text/weighted_string.hpp"
#include "usi/topk/approximate_topk.hpp"
#include "usi/topk/topk_types.hpp"
#include "usi/util/common.hpp"
#include "usi/util/rng.hpp"

namespace usi::testing {

/// All occurrence start positions of \p pattern in \p text, by direct scan.
inline std::vector<index_t> BruteOccurrences(const Text& text,
                                             const Text& pattern) {
  std::vector<index_t> occ;
  if (pattern.empty() || pattern.size() > text.size()) return occ;
  for (index_t i = 0; i + pattern.size() <= text.size(); ++i) {
    if (std::equal(pattern.begin(), pattern.end(), text.begin() + i)) {
      occ.push_back(i);
    }
  }
  return occ;
}

/// Frequency map of every distinct substring (as std::string over raw
/// symbol bytes). O(n^2) substrings; use on small texts only.
inline std::map<std::string, index_t> BruteSubstringFrequencies(
    const Text& text) {
  std::map<std::string, index_t> freq;
  for (std::size_t i = 0; i < text.size(); ++i) {
    std::string s;
    for (std::size_t j = i; j < text.size(); ++j) {
      s.push_back(static_cast<char>(text[j]));
      ++freq[s];
    }
  }
  return freq;
}

/// The exact multiset of top-k frequencies (descending), from brute force.
inline std::vector<index_t> BruteTopKFrequencies(const Text& text, u64 k) {
  std::vector<index_t> freqs;
  for (const auto& [s, f] : BruteSubstringFrequencies(text)) freqs.push_back(f);
  std::sort(freqs.rbegin(), freqs.rend());
  if (freqs.size() > k) freqs.resize(k);
  return freqs;
}

/// Brute-force global utility of \p pattern over the occurrences in
/// (\p text, \p weights) that end past position \p boundary (start + m >
/// boundary) — the half of an answer the update tier's delta overlay owns.
/// Boundary 0 counts every occurrence.
inline QueryResult BruteUtilityEndingPast(std::span<const Symbol> text,
                                          std::span<const double> weights,
                                          index_t boundary,
                                          std::span<const Symbol> pattern,
                                          GlobalUtilityKind kind) {
  QueryResult result;
  const std::size_t m = pattern.size();
  if (m == 0 || m > text.size()) return result;
  UtilityAccumulator acc;
  for (std::size_t i = 0; i + m <= text.size(); ++i) {
    if (i + m <= boundary ||
        !std::equal(pattern.begin(), pattern.end(), text.begin() + i)) {
      continue;
    }
    double local = 0;
    for (std::size_t k = 0; k < m; ++k) local += weights[i + k];
    acc.Add(local, kind);
  }
  if (acc.count == 0) return result;
  result.utility = acc.Finalize(kind);
  result.occurrences = acc.count;
  return result;
}

/// Brute-force global utility of \p pattern over (S, w).
inline QueryResult BruteUtility(const WeightedString& ws, const Text& pattern,
                                GlobalUtilityKind kind) {
  return BruteUtilityEndingPast(ws.text(), ws.weights(), 0, pattern, kind);
}

/// Deterministic random text for property tests.
inline Text RandomText(index_t n, u32 sigma, u64 seed) {
  Rng rng(seed);
  Text text(n);
  for (auto& c : text) c = static_cast<Symbol>(rng.UniformBelow(sigma));
  return text;
}

/// Random weighted string with weights in [0, 1].
inline WeightedString RandomWeighted(index_t n, u32 sigma, u64 seed) {
  Rng rng(seed ^ 0x77);
  Text text(n);
  for (auto& c : text) c = static_cast<Symbol>(rng.UniformBelow(sigma));
  std::vector<double> weights(n);
  for (auto& w : weights) w = rng.UniformDouble();
  return WeightedString(std::move(text), std::move(weights));
}

/// Random weighted string with INTEGER weights in [1, 5]: integer local
/// sums make kSum merges exactly associative in double (any grouping of the
/// base/delta split produces the bit-identical total), so differential
/// tests of merged update-tier answers can demand operator== instead of a
/// tolerance.
inline WeightedString RandomIntegerWeighted(index_t n, u32 sigma, u64 seed) {
  Rng rng(seed);
  Text text(n);
  for (auto& c : text) c = static_cast<Symbol>(rng.UniformBelow(sigma));
  std::vector<double> weights(n);
  for (auto& w : weights) {
    w = static_cast<double>(rng.UniformInRange(1, 5));
  }
  return WeightedString(std::move(text), std::move(weights));
}

/// Materializes a TopKSubstring as a std::string via its witness.
inline std::string MaterializeString(const Text& text,
                                     const TopKSubstring& item) {
  std::string s;
  for (index_t k = 0; k < item.length; ++k) {
    s.push_back(static_cast<char>(text[item.witness + k]));
  }
  return s;
}

/// Text literal helper: "abc" -> {symbols 'a','b','c'}.
inline Text T(const std::string& raw) {
  Text text;
  for (char c : raw) text.push_back(static_cast<Symbol>(c));
  return text;
}

/// A UET index (UsiBuilder::Build), or a UAT one: ApproximateTopK's list
/// at \p approx, K = options.k, built through UsiBuilder::Build(TopKList).
inline std::unique_ptr<UsiIndex> BuildWithMiner(
    const WeightedString& ws, const UsiOptions& options, UsiMiner miner,
    const ApproximateTopKOptions& approx = {}) {
  UsiBuilder builder(ws, options);
  return miner == UsiMiner::kExact
             ? builder.Build()
             : builder.Build(ApproximateTopK(ws.text(), options.k, approx));
}

}  // namespace usi::testing

#endif  // USI_TESTS_TEST_HELPERS_HPP_
