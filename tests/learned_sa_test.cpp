// Tests for the learned last-mile fallback (LearnedSa): differential parity
// against plain binary search and brute force on adversarial text shapes,
// batch == per-query parity (including through UsiService at several thread
// counts), serialization, and the v3 learned-section round-trip.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "usi/core/usi_index.hpp"
#include "usi/core/usi_service.hpp"
#include "usi/suffix/learned_sa.hpp"
#include "usi/suffix/sa_search.hpp"
#include "usi/suffix/suffix_array.hpp"
#include "usi/util/rng.hpp"

namespace usi {
namespace {

/// The text shapes the ε contract calls out: uniform random (model-friendly),
/// periodic and all-equal (equal-key runs of unbounded length — the model's
/// predictions are unboundedly wrong and the gallop must correct), and a
/// full-256-alphabet text (keys spread over the whole u64 axis).
std::vector<std::pair<std::string, Text>> AdversarialTexts() {
  std::vector<std::pair<std::string, Text>> texts;
  texts.emplace_back("random", testing::RandomText(2000, 4, 0xA1));
  Text periodic;
  for (int i = 0; i < 1800; ++i) {
    periodic.push_back(static_cast<Symbol>("abc"[i % 3]));
  }
  texts.emplace_back("periodic", periodic);
  texts.emplace_back("all-equal", Text(1500, static_cast<Symbol>('a')));
  Rng rng(0xB2);
  Text full;
  for (int i = 0; i < 2000; ++i) {
    full.push_back(static_cast<Symbol>(rng.UniformBelow(256)));
  }
  texts.emplace_back("full-alphabet", full);
  return texts;
}

/// Query mix for one text: existing fragments both shorter and longer than
/// the packed-key prefix, mutated (mostly absent, often outside the compact
/// alphabet) patterns, the empty pattern, and a pattern longer than the
/// text.
std::vector<Text> PatternMix(const Text& text, u64 seed) {
  Rng rng(seed);
  std::vector<Text> patterns;
  patterns.push_back({});  // Empty.
  patterns.push_back(Text(text.size() + 3, static_cast<Symbol>('a')));
  for (int q = 0; q < 160; ++q) {
    // Lengths straddle the packed-key prefix of byte-like texts (8 chars):
    // short patterns resolve inside the key, longer ones force last-mile
    // compares past it. (Low-σ texts pack deeper and keep them all inside.)
    const index_t len = 1 + static_cast<index_t>(rng.UniformBelow(14));
    Text pattern(len);
    if (len <= text.size() && q % 3 != 2) {
      const index_t start =
          static_cast<index_t>(rng.UniformBelow(text.size() - len + 1));
      std::copy(text.begin() + start, text.begin() + start + len,
                pattern.begin());
      if (q % 3 == 1) {
        // Mutate one byte: usually absent, lands between stored keys.
        pattern[rng.UniformBelow(len)] =
            static_cast<Symbol>(rng.UniformBelow(256));
      }
    } else {
      for (auto& c : pattern) c = static_cast<Symbol>(rng.UniformBelow(256));
    }
    patterns.push_back(std::move(pattern));
  }
  return patterns;
}

/// Byte-like text: words from a small vocabulary joined by spaces, so
/// substrings longer than the 8-character packed key repeat, and interval
/// boundaries fall inside equal-key runs.
Text WordText(index_t n, u64 seed) {
  Rng rng(seed);
  std::vector<Text> vocabulary(120);
  for (Text& word : vocabulary) {
    word.resize(2 + rng.UniformBelow(11));
    for (Symbol& c : word) c = static_cast<Symbol>('a' + rng.UniformBelow(26));
  }
  Text text;
  while (text.size() < n) {
    const Text& word = vocabulary[rng.UniformBelow(vocabulary.size())];
    text.insert(text.end(), word.begin(), word.end());
    text.push_back(static_cast<Symbol>(' '));
  }
  text.resize(n);
  return text;
}

/// Names a pattern in a failure message: its length and its symbols, with
/// anything unprintable escaped.
std::string Describe(const Text& pattern) {
  std::string out = "pattern len=" + std::to_string(pattern.size()) + " \"";
  for (const Symbol c : pattern) {
    if (c >= 0x20 && c < 0x7F && c != '"' && c != '\\') {
      out.push_back(static_cast<char>(c));
    } else {
      char buf[5];
      std::snprintf(buf, sizeof(buf), "\\x%02X", c);
      out += buf;
    }
  }
  return out + "\"";
}

/// Patterns of lengths 1–80, across the packed-key depth of every text
/// (8 chars for byte-like texts, 32 for σ=4). The classes pick the branch
/// the rb + 1 search takes: short substrings occur far more often than the
/// lb window spans, so lb's probes never pass the interval and rb + 1 takes
/// the upper model's window; unique long substrings, and absent patterns,
/// leave a probed suffix above the pattern in lb's window, the fence rb + 1
/// starts from.
std::vector<Text> FencePatterns(const Text& text, u64 seed) {
  Rng rng(seed);
  const auto substring = [&](index_t len) {
    len = std::min<index_t>(len, static_cast<index_t>(text.size()));
    const index_t start =
        static_cast<index_t>(rng.UniformBelow(text.size() - len + 1));
    return Text(text.begin() + start, text.begin() + start + len);
  };
  std::vector<Text> patterns;
  for (int q = 0; q < 60; ++q) {
    patterns.push_back(
        substring(1 + static_cast<index_t>(rng.UniformBelow(3))));
    patterns.push_back(
        substring(20 + static_cast<index_t>(rng.UniformBelow(61))));
    Text any = substring(1 + static_cast<index_t>(rng.UniformBelow(80)));
    patterns.push_back(any);
    // Mutated: one symbol replaced, inside or outside the text's alphabet.
    any[rng.UniformBelow(any.size())] =
        q % 2 == 0 ? static_cast<Symbol>(rng.UniformBelow(256))
                   : text[rng.UniformBelow(text.size())];
    patterns.push_back(std::move(any));
    // Absent: random symbols.
    Text noise(1 + rng.UniformBelow(80));
    for (Symbol& c : noise) c = static_cast<Symbol>(rng.UniformBelow(256));
    patterns.push_back(std::move(noise));
  }
  return patterns;
}

TEST(LearnedSa, PackSuffixKeyIsMonotoneInSaOrder) {
  for (const auto& [name, text] : AdversarialTexts()) {
    const std::vector<index_t> sa = BuildSuffixArray(text);
    // Both the alphabet-fitted packing (what Build uses) and plain byte
    // packing must order keys like the SA orders suffixes.
    for (const KeyPacking kp : {KeyPacking::ForText(text), KeyPacking{}}) {
      for (std::size_t k = 1; k < sa.size(); ++k) {
        ASSERT_LE(PackSuffixKey(text, sa[k - 1], kp),
                  PackSuffixKey(text, sa[k], kp))
            << name << " at rank " << k << " bits " << kp.bits;
      }
    }
  }
}

TEST(LearnedSa, PackSuffixKeyMatchesPerSymbolReference) {
  // The word-at-a-time packer against the plain one-symbol-at-a-time
  // definition, at every bit width and every position of a short text: the
  // last kp.chars positions exercise the short-suffix tail and the
  // positions whose last partial word ends exactly at the text's end.
  Rng rng(0x9AC4);
  for (u32 bits = 1; bits <= 8; ++bits) {
    const KeyPacking kp{bits, 64 / bits};
    Text text(3 * kp.chars + 11);
    for (Symbol& c : text) {
      c = static_cast<Symbol>(rng.UniformBelow(u64{1} << bits));
    }
    for (index_t pos = 0; pos < text.size(); ++pos) {
      const std::size_t take =
          std::min<std::size_t>(kp.chars, text.size() - pos);
      u64 want = 0;
      for (std::size_t j = 0; j < take; ++j) {
        want = (want << bits) | text[pos + j];
      }
      want <<= 64 - bits * static_cast<u32>(take);
      ASSERT_EQ(PackSuffixKey(text, pos, kp), want)
          << "bits " << bits << " pos " << pos;
    }
  }
}

TEST(LearnedSa, IntervalParityOnAdversarialTexts) {
  for (const auto& [name, text] : AdversarialTexts()) {
    const std::vector<index_t> sa = BuildSuffixArray(text);
    for (const u32 epsilon : {4u, 32u, 256u}) {
      LearnedSa model;
      model.Build(text, sa, {epsilon});
      ASSERT_FALSE(model.empty()) << name;
      EXPECT_GE(model.epsilon(), epsilon);
      u64 seed = 0xC0FFEE ^ epsilon;
      for (const Text& pattern : PatternMix(text, seed)) {
        const SaInterval plain = FindSaInterval(text, sa, pattern);
        const SaInterval learned = model.FindInterval(text, sa, pattern);
        // Byte-identical intervals, not just equal counts.
        ASSERT_EQ(plain.lb, learned.lb) << name << " eps=" << epsilon;
        ASSERT_EQ(plain.rb, learned.rb) << name << " eps=" << epsilon;
        const std::vector<index_t> brute =
            testing::BruteOccurrences(text, pattern);
        if (!pattern.empty()) {
          ASSERT_EQ(learned.Count(), brute.size()) << name;
        }
      }
    }
  }
}

TEST(LearnedSa, BatchMatchesPerQuery) {
  for (const auto& [name, text] : AdversarialTexts()) {
    const std::vector<index_t> sa = BuildSuffixArray(text);
    LearnedSa model;
    model.Build(text, sa);
    ASSERT_FALSE(model.empty()) << name;
    const std::vector<Text> patterns = PatternMix(text, 0xBEEF);
    std::vector<PatternSpan> spans;
    for (const Text& p : patterns) spans.emplace_back(p.data(), p.size());
    // Every batch size exercises a different AMAC group fill (1 = degenerate,
    // 16 = exactly one group, 173 = ragged tail).
    for (const std::size_t take : {std::size_t{1}, std::size_t{16},
                                   spans.size()}) {
      std::vector<SaInterval> batch(take);
      model.FindIntervalBatch(
          text, sa, std::span<const PatternSpan>(spans.data(), take),
          std::span<SaInterval>(batch.data(), take));
      for (std::size_t i = 0; i < take; ++i) {
        const SaInterval one = model.FindInterval(text, sa, spans[i]);
        ASSERT_EQ(one.lb, batch[i].lb) << name << " i=" << i;
        ASSERT_EQ(one.rb, batch[i].rb) << name << " i=" << i;
      }
    }
  }
}

/// Checks \p model against FindSaInterval on every pattern, one query at a
/// time and in batches of 1, exactly one group, and everything at once (a
/// ragged last group). \p label names the text and model in a failure.
void ExpectPlainSearchAnswers(const std::string& label,
                              const LearnedSa& model, const Text& text,
                              const std::vector<index_t>& sa,
                              const std::vector<Text>& patterns) {
  const std::vector<PatternSpan> spans = AsPatternSpans(patterns);
  std::vector<SaInterval> want(patterns.size());
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    want[i] = FindSaInterval(text, sa, patterns[i]);
  }
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    const SaInterval got = model.FindInterval(text, sa, patterns[i]);
    ASSERT_TRUE(got.lb == want[i].lb && got.rb == want[i].rb)
        << label << " single " << Describe(patterns[i]) << ": got ["
        << got.lb << ", " << got.rb << "], want [" << want[i].lb << ", "
        << want[i].rb << "]";
  }
  for (const std::size_t batch :
       {std::size_t{1}, std::size_t{16}, spans.size()}) {
    std::vector<SaInterval> got(patterns.size());
    for (std::size_t at = 0; at < spans.size(); at += batch) {
      const std::size_t take = std::min(batch, spans.size() - at);
      model.FindIntervalBatch(
          text, sa, std::span<const PatternSpan>(spans).subspan(at, take),
          std::span<SaInterval>(got).subspan(at, take));
    }
    for (std::size_t i = 0; i < patterns.size(); ++i) {
      ASSERT_TRUE(got[i].lb == want[i].lb && got[i].rb == want[i].rb)
          << label << " batch=" << batch << " " << Describe(patterns[i])
          << ": got [" << got[i].lb << ", " << got[i].rb << "], want ["
          << want[i].lb << ", " << want[i].rb << "]";
    }
  }
}

/// The adversarial texts plus a σ=4 text and a byte-like word text.
std::vector<std::pair<std::string, Text>> FenceTexts() {
  std::vector<std::pair<std::string, Text>> texts = AdversarialTexts();
  texts.emplace_back("sigma4", testing::RandomText(12000, 4, 0x5A));
  texts.emplace_back("byte-like", WordText(16000, 0x6B));
  return texts;
}

/// Adds delta(segment index) to the intercept of every segment of one model
/// in a serialized payload. Layout (learned_sa.hpp "Storage"): a 64-byte
/// header (num_radix at byte 16, lower segment count at 24, upper at 56),
/// the lower radix table padded to 8 bytes, the lower segments, the upper
/// radix table, the upper segments; a segment is (first_key, slope,
/// intercept), 24 bytes.
template <typename Delta>
void ShiftIntercepts(std::vector<u8>* payload, bool upper, Delta delta) {
  const auto field = [&](std::size_t at) {
    u64 value;
    std::memcpy(&value, payload->data() + at, sizeof(value));
    return static_cast<std::size_t>(value);
  };
  const std::size_t radix_bytes =
      (field(16) * sizeof(u32) + 7) & ~std::size_t{7};
  const std::size_t lower = field(24);
  std::size_t at = 64 + radix_bytes;
  if (upper) at += lower * 24 + radix_bytes;
  const std::size_t count = upper ? field(56) : lower;
  for (std::size_t s = 0; s < count; ++s, at += 24) {
    double intercept;
    std::memcpy(&intercept, payload->data() + at + 16, sizeof(intercept));
    intercept += delta(s);
    std::memcpy(payload->data() + at + 16, &intercept, sizeof(intercept));
  }
}

TEST(LearnedSa, BothRbFencesMatchPlainSearch) {
  for (const auto& [name, text] : FenceTexts()) {
    const std::vector<index_t> sa = BuildSuffixArray(text);
    const std::vector<Text> patterns = FencePatterns(text, 0x7C);
    for (const u32 epsilon : {4u, 32u, 256u}) {
      LearnedSa model;
      model.Build(text, sa, {epsilon});
      ASSERT_FALSE(model.empty()) << name;
      ASSERT_NO_FATAL_FAILURE(ExpectPlainSearchAnswers(
          name + " eps=" + std::to_string(epsilon), model, text, sa,
          patterns));
    }
  }
}

TEST(LearnedSa, MisleadingPredictionsMatchPlainSearch) {
  // A prediction far outside ε (an unfitted key, or a corrupt payload that
  // a shallow mapped open accepts) must cost probes, never answers. Upper
  // predictions pushed far past rb + 1 send the wide-interval rb + 1 search
  // galloping left across the whole interval, down to slots below lb.
  for (const auto& [name, text] : FenceTexts()) {
    const std::vector<index_t> sa = BuildSuffixArray(text);
    const std::vector<Text> patterns = FencePatterns(text, 0x8D);
    const double n = static_cast<double>(sa.size());
    for (const u32 epsilon : {4u, 32u}) {
      LearnedSa fitted;
      fitted.Build(text, sa, {epsilon});
      const std::vector<u8> payload(fitted.payload().begin(),
                                    fitted.payload().end());
      struct Shift {
        const char* what;
        bool upper;
        double delta;
      };
      for (const Shift& shift :
           {Shift{"upper+40", true, 40}, Shift{"upper+400", true, 400},
            Shift{"upper+n", true, n}, Shift{"upper-400", true, -400},
            Shift{"lower+400", false, 400}, Shift{"lower-400", false, -400}}) {
        std::vector<u8> moved = payload;
        ShiftIntercepts(&moved, shift.upper,
                        [&](std::size_t) { return shift.delta; });
        LearnedSa model;
        ASSERT_TRUE(model.AdoptView(moved.data(), moved.size()));
        ASSERT_NO_FATAL_FAILURE(ExpectPlainSearchAnswers(
            name + " eps=" + std::to_string(epsilon) + " " + shift.what,
            model, text, sa, patterns));
      }
      // Independent noise of up to ±n on every segment of both models.
      std::vector<u8> noisy = payload;
      Rng rng(0x9E ^ epsilon);
      const auto noise = [&](std::size_t) {
        return static_cast<double>(rng.UniformBelow(2 * sa.size() + 1)) - n;
      };
      ShiftIntercepts(&noisy, false, noise);
      ShiftIntercepts(&noisy, true, noise);
      LearnedSa model;
      ASSERT_TRUE(model.AdoptView(noisy.data(), noisy.size()));
      ASSERT_NO_FATAL_FAILURE(ExpectPlainSearchAnswers(
          name + " eps=" + std::to_string(epsilon) + " noise", model, text,
          sa, patterns));
    }
  }
}

TEST(LearnedSa, DisabledAndDegenerateInputs) {
  const Text text = testing::T("abracadabra");
  const std::vector<index_t> sa = BuildSuffixArray(text);
  LearnedSa disabled;
  disabled.Build(text, sa, {0});  // ε = 0 disables the model.
  EXPECT_TRUE(disabled.empty());
  LearnedSa empty_sa;
  empty_sa.Build({}, {});
  EXPECT_TRUE(empty_sa.empty());
  // FindInterval on an empty model still answers (plain search fallback).
  const SaInterval got = disabled.FindInterval(text, sa, testing::T("abra"));
  const SaInterval want = FindSaInterval(text, sa, testing::T("abra"));
  EXPECT_EQ(got.lb, want.lb);
  EXPECT_EQ(got.rb, want.rb);
}

TEST(LearnedSa, SerializeAdoptRoundTrip) {
  const Text text = testing::RandomText(3000, 5, 0xD4);
  const std::vector<index_t> sa = BuildSuffixArray(text);
  LearnedSa model;
  model.Build(text, sa);
  ASSERT_FALSE(model.empty());
  const std::vector<u8> payload(model.payload().begin(),
                                model.payload().end());
  EXPECT_EQ(payload.size(), model.SizeInBytes());

  LearnedSa adopted;
  ASSERT_TRUE(adopted.AdoptView(payload.data(), payload.size()));
  EXPECT_EQ(adopted.epsilon(), model.epsilon());
  EXPECT_EQ(adopted.num_segments(), model.num_segments());
  EXPECT_EQ(adopted.fit_n(), model.fit_n());
  for (const Text& pattern : PatternMix(text, 0xE5)) {
    const SaInterval a = model.FindInterval(text, sa, pattern);
    const SaInterval b = adopted.FindInterval(text, sa, pattern);
    ASSERT_EQ(a.lb, b.lb);
    ASSERT_EQ(a.rb, b.rb);
  }
  // An adopted model serves the very bytes it adopted.
  EXPECT_EQ(adopted.payload().data(), payload.data());
  EXPECT_EQ(adopted.payload().size(), payload.size());

  // Malformed payloads are rejected, never adopted: truncation, a flipped
  // magic, and a geometry lie.
  LearnedSa bad;
  EXPECT_FALSE(bad.AdoptView(payload.data(), payload.size() - 1));
  EXPECT_TRUE(bad.empty());
  std::vector<u8> flipped = payload;
  flipped[0] ^= 0xFF;
  EXPECT_FALSE(bad.AdoptView(flipped.data(), flipped.size()));
  std::vector<u8> lying = payload;
  lying[24] ^= 0x01;  // num_segments: length no longer matches geometry.
  EXPECT_FALSE(bad.AdoptView(lying.data(), lying.size()));
}

TEST(LearnedSa, IndexMissPathParityThroughServiceThreads) {
  // End-to-end: a small hash table forces most queries onto the fallback,
  // and the service fans batches across 1/2/4/8 threads. Batched answers
  // must equal per-pattern Query at every width — the concurrency contract
  // the TSan job runs under.
  const WeightedString ws = testing::RandomWeighted(6000, 4, 0xF7);
  UsiOptions options;
  options.k = 32;  // Tiny table: the miss path dominates.
  UsiIndex index(ws, options);
  ASSERT_FALSE(index.learned_sa().empty());

  Rng rng(0x11);
  std::vector<Text> patterns;
  for (int i = 0; i < 700; ++i) {
    const index_t len = 1 + static_cast<index_t>(rng.UniformBelow(12));
    Text p(len);
    const index_t start =
        static_cast<index_t>(rng.UniformBelow(ws.size() - len));
    std::copy(ws.text().begin() + start, ws.text().begin() + start + len,
              p.begin());
    if (i % 4 == 3) p[len / 2] = static_cast<Symbol>(rng.UniformBelow(256));
    patterns.push_back(std::move(p));
  }
  std::vector<QueryResult> expected(patterns.size());
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    expected[i] = static_cast<const UsiIndex&>(index).Query(patterns[i]);
  }

  const std::vector<PatternSpan> spans = AsPatternSpans(patterns);
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    UsiServiceOptions service_options;
    service_options.threads = threads;
    service_options.min_shard_size = 16;
    UsiService service(index, service_options);
    // Both batch surfaces: owned results and caller-owned storage.
    const std::vector<QueryResult> via_owned = service.QueryBatch(spans);
    std::vector<QueryResult> via_into(patterns.size());
    service.QueryBatchInto(spans, std::span<QueryResult>(via_into));
    for (std::size_t i = 0; i < patterns.size(); ++i) {
      ASSERT_DOUBLE_EQ(expected[i].utility, via_owned[i].utility)
          << "threads=" << threads;
      ASSERT_EQ(expected[i].occurrences, via_owned[i].occurrences);
      ASSERT_EQ(expected[i].from_hash_table, via_owned[i].from_hash_table);
      ASSERT_DOUBLE_EQ(expected[i].utility, via_into[i].utility)
          << "threads=" << threads;
      ASSERT_EQ(expected[i].occurrences, via_into[i].occurrences);
      ASSERT_EQ(expected[i].from_hash_table, via_into[i].from_hash_table);
    }
  }
}

TEST(LearnedSa, V3RoundTripWithAndWithoutLearnedSection) {
  const std::string dir = P_tmpdir;
  const std::string with_path = dir + "/learned_sa_test_with.bin";
  const std::string without_path = dir + "/learned_sa_test_without.bin";
  const WeightedString ws = testing::RandomWeighted(4000, 4, 0x2A);
  UsiOptions options;
  options.k = 64;
  // Off the default, so a reader that refit instead of carrying the saved
  // model would show a different ε.
  options.learned_epsilon = kDefaultLearnedEpsilon / 2;
  UsiIndex index(ws, options);
  ASSERT_FALSE(index.learned_sa().empty());

  ASSERT_TRUE(index.SaveToFile(with_path, IndexFileFormat::kV3Mapped));
  UsiIndex::SaveOptions no_learned;
  no_learned.learned_section = false;
  ASSERT_TRUE(index.SaveToFile(without_path, IndexFileFormat::kV3Mapped,
                               no_learned));

  const std::unique_ptr<UsiIndex> with = UsiIndex::OpenMapped(ws, with_path);
  ASSERT_NE(with, nullptr);
  EXPECT_FALSE(with->learned_sa().empty());
  EXPECT_EQ(with->learned_sa().epsilon(), index.learned_sa().epsilon());
  EXPECT_EQ(with->learned_sa().num_segments(),
            index.learned_sa().num_segments());

  // A v3 image without the learned section — the exact shape of every
  // pre-extension file — opens and serves identically.
  const std::unique_ptr<UsiIndex> without =
      UsiIndex::OpenMapped(ws, without_path);
  ASSERT_NE(without, nullptr);
  EXPECT_TRUE(without->learned_sa().empty());

  // Saving an index without a learned section writes none: the re-save
  // reproduces the image byte for byte, with no model fit for the save.
  const std::string resaved_path = dir + "/learned_sa_test_resaved.bin";
  ASSERT_TRUE(without->SaveToFile(resaved_path, IndexFileFormat::kV3Mapped));
  const auto read_bytes = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  EXPECT_EQ(read_bytes(resaved_path), read_bytes(without_path));
  std::remove(resaved_path.c_str());

  // The heap read carries the saved model losslessly (same ε, same
  // segments), and serves the same answers again.
  const std::unique_ptr<UsiIndex> heap = UsiIndex::LoadFromFile(ws, with_path);
  ASSERT_NE(heap, nullptr);
  EXPECT_FALSE(heap->IsMapped());
  EXPECT_EQ(heap->learned_sa().epsilon(), index.learned_sa().epsilon());
  EXPECT_EQ(heap->learned_sa().num_segments(),
            index.learned_sa().num_segments());

  Rng rng(0x3B);
  for (int q = 0; q < 400; ++q) {
    const index_t len = 1 + static_cast<index_t>(rng.UniformBelow(12));
    Text p(len);
    const index_t start =
        static_cast<index_t>(rng.UniformBelow(ws.size() - len));
    std::copy(ws.text().begin() + start, ws.text().begin() + start + len,
              p.begin());
    if (q % 5 == 4) p[0] = static_cast<Symbol>(rng.UniformBelow(256));
    const QueryResult a = index.Query(p);
    const QueryResult b = with->Query(p);
    const QueryResult c = without->Query(p);
    const QueryResult d = heap->Query(p);
    ASSERT_DOUBLE_EQ(a.utility, b.utility);
    ASSERT_EQ(a.occurrences, b.occurrences);
    ASSERT_DOUBLE_EQ(a.utility, c.utility);
    ASSERT_EQ(a.occurrences, c.occurrences);
    ASSERT_DOUBLE_EQ(a.utility, d.utility);
    ASSERT_EQ(a.occurrences, d.occurrences);
  }
  std::remove(with_path.c_str());
  std::remove(without_path.c_str());
}

}  // namespace
}  // namespace usi
