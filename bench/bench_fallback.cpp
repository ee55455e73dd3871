// Fallback-path bench (learned last-mile PR): the table-miss query path —
// locate the pattern's SA interval, then aggregate its occurrences — timed
// three ways per dataset:
//
//   lookup — plain binary search (FindSaInterval) vs the learned model
//            (LearnedSa::FindInterval) vs the batched learned search
//            (FindIntervalBatch, AMAC-pipelined probes), in lookups/s.
//            Every interval is verified byte-identical across the three.
//            Two pattern sets: 4-16-symbol fragments (a third mutated), and
//            the zipf shape of the reference benchmark — Zipf(s=1) over a
//            pool of 4-64-symbol substrings plus a 10% cold tail — whose
//            long patterns reach past the packed-key depth of byte-like
//            texts (JSON keys prefixed zipf_).
//            Runs on a serving-scale instance of each dataset (64x the
//            Table II registry length), sized so the suffix array exceeds
//            the LLC — the regime the batched path exists for: under
//            multi-text sharded serving the aggregate working set dwarfs
//            the cache, so fallback probes are memory round trips, which
//            the batched search overlaps 16-wide. Two rates per variant:
//            warm (best-of over repeats, caches as the run leaves them)
//            and evicted (the LLC is flushed before each repeat).
//   eps    — model error-bound sweep on the largest text: segments, payload
//            bytes, and batched lookup rate as ε widens.
//   agg    — occurrence aggregation at registry scale: the prefetched
//            VisitSaInterval walk against a naive no-prefetch loop, in
//            Mocc/s.
//
// Acceptance bar (ISSUE: learned last-mile fallback): batched learned
// lookups >= 3x plain binary search on the largest bench text, in the
// evicted (miss-path) regime. --json PATH writes machine-readable results
// (BENCH_fallback.json in CI).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "usi/core/utility.hpp"
#include "usi/core/workload.hpp"
#include "usi/suffix/learned_sa.hpp"
#include "usi/suffix/sa_search.hpp"
#include "usi/suffix/suffix_array.hpp"
#include "usi/util/rng.hpp"

namespace usi {
namespace {

constexpr int kRepeats = 3;
constexpr std::size_t kLookups = 4096;

/// Lookup sections run on instances this many times the registry length —
/// at 1x every suffix array fits in a server LLC and there are no memory
/// stalls for the batched search to overlap. The smoke divisor
/// (USI_BENCH_SCALE) applies on top, so CI smoke stays tiny.
constexpr index_t kServingScale = 64;

template <typename Fn>
double BestOf(Fn fn) {
  double best = 0;
  for (int r = 0; r < kRepeats; ++r) {
    const double seconds = bench::TimeOnce(fn);
    if (r == 0 || seconds < best) best = seconds;
  }
  return best;
}

/// Pushes SA/text/model lines out of the cache hierarchy by streaming a
/// buffer comfortably larger than any LLC, so the next timed repeat starts
/// from memory — the aggregate-working-set serving regime.
void EvictLlc() {
  static std::vector<u64> junk(48u << 20);  // 384 MB.
  for (std::size_t i = 0; i < junk.size(); i += 8) junk[i] += 1;
}

/// Best-of-N where every repeat starts with the LLC evicted (the eviction
/// itself runs outside the timed region).
template <typename Fn>
double ColdBestOf(Fn fn) {
  double best = 0;
  for (int r = 0; r < kRepeats; ++r) {
    EvictLlc();
    const double seconds = bench::TimeOnce(fn);
    if (r == 0 || seconds < best) best = seconds;
  }
  return best;
}

/// Miss-path pattern workload: fragments long enough (up to 16 bytes) that
/// on byte-like texts the last mile must compare text past the packed key,
/// with a third mutated — mostly absent, landing between stored keys (or
/// outside the alphabet entirely) where the model's prediction is weakest.
std::vector<Text> MakePatterns(const Text& text, u64 seed) {
  Rng rng(seed);
  std::vector<Text> patterns;
  patterns.reserve(kLookups);
  while (patterns.size() < kLookups) {
    const index_t len = 4 + static_cast<index_t>(rng.UniformBelow(13));
    if (len > text.size()) continue;
    const index_t start =
        static_cast<index_t>(rng.UniformBelow(text.size() - len + 1));
    Text pattern(text.begin() + start, text.begin() + start + len);
    if (patterns.size() % 3 == 0) {
      pattern[rng.UniformBelow(len)] =
          static_cast<Symbol>(rng.UniformBelow(256));
    }
    patterns.push_back(std::move(pattern));
  }
  return patterns;
}

/// The reference benchmark's miss-heavy query shape: Zipf(s=1) over 4096
/// substrings of 4-64 symbols, 10% of lookups a uniform cold tail.
std::vector<Text> MakeZipfPatterns(const Text& text, u64 seed) {
  ZipfWorkloadOptions zipf;
  zipf.num_queries = kLookups;
  zipf.pool_size = 4096;
  zipf.s = 1.0;
  zipf.hot_fraction = 0.9;
  zipf.min_len = 4;
  zipf.max_len = 64;
  zipf.seed = seed;
  return MakeWorkloadZipf(text, zipf).patterns;
}

/// Serving-scale text + SA, kept alive across sections so the ε sweep
/// reuses the largest dataset's (expensive) suffix array.
struct ServingSet {
  Text text;
  std::vector<index_t> sa;
};

ServingSet MakeServingSet(const DatasetSpec& spec) {
  const u64 n64 = static_cast<u64>(bench::ScaledLength(spec)) * kServingScale;
  const index_t n = static_cast<index_t>(n64);
  ServingSet set;
  set.text = MakeDataset(spec, n).text();
  set.sa = BuildSuffixArray(set.text);
  return set;
}

/// Lookups/s of the three interval searches over one pattern set.
struct LookupRates {
  double plain_warm_per_s = 0;
  double learned_warm_per_s = 0;
  double batched_warm_per_s = 0;
  double plain_cold_per_s = 0;
  double learned_cold_per_s = 0;
  double batched_cold_per_s = 0;
  /// Batched learned lookups / plain binary-search lookups, both in the
  /// evicted regime — the acceptance figure.
  double speedup = 0;
};

struct FallbackRow {
  std::string name;
  LookupRates short_set;  ///< 4-16-symbol fragments.
  LookupRates zipf_set;   ///< Zipf shape, 4-64 symbols.
  double agg_naive_mocc_s = 0;
  double agg_prefetch_mocc_s = 0;
  u64 model_segments = 0;
  double model_mb = 0;
};

/// Verifies the three paths agree byte-for-byte on every interval of
/// \p patterns, then times each warm and evicted.
LookupRates TimeLookups(const LearnedSa& model, const Text& text,
                        const std::vector<index_t>& sa,
                        const std::vector<Text>& patterns) {
  const std::vector<PatternSpan> spans = AsPatternSpans(patterns);
  std::vector<SaInterval> batched(patterns.size());
  model.FindIntervalBatch(text, sa, spans, batched);
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    const SaInterval plain = FindSaInterval(text, sa, spans[i]);
    const SaInterval learned = model.FindInterval(text, sa, spans[i]);
    USI_CHECK(plain.lb == learned.lb && plain.rb == learned.rb);
    USI_CHECK(plain.lb == batched[i].lb && plain.rb == batched[i].rb);
  }

  u64 sink = 0;
  const auto run_plain = [&] {
    for (const PatternSpan& p : spans) {
      const SaInterval iv = FindSaInterval(text, sa, p);
      sink += iv.lb + iv.rb;
    }
  };
  const auto run_learned = [&] {
    for (const PatternSpan& p : spans) {
      const SaInterval iv = model.FindInterval(text, sa, p);
      sink += iv.lb + iv.rb;
    }
  };
  const auto run_batched = [&] {
    model.FindIntervalBatch(text, sa, spans, batched);
    sink += batched.back().lb;
  };
  const auto rate = [&](double seconds) {
    return seconds > 0 ? static_cast<double>(patterns.size()) / seconds : 0;
  };
  LookupRates r;
  r.plain_warm_per_s = rate(BestOf(run_plain));
  r.learned_warm_per_s = rate(BestOf(run_learned));
  r.batched_warm_per_s = rate(BestOf(run_batched));
  r.plain_cold_per_s = rate(ColdBestOf(run_plain));
  r.learned_cold_per_s = rate(ColdBestOf(run_learned));
  r.batched_cold_per_s = rate(ColdBestOf(run_batched));
  r.speedup = r.plain_cold_per_s > 0
                  ? r.batched_cold_per_s / r.plain_cold_per_s
                  : 0;
  if (sink == 42) std::printf("(unreachable)\n");
  return r;
}

/// Writes one set's rates under \p prefix ("" for the 4-16 set, whose
/// keys predate the zipf set).
void AddLookupJson(bench::BenchJson* json, const std::string& section,
                   const std::string& prefix, const LookupRates& r) {
  json->Add(section, prefix + "plain_lookups_warm", r.plain_warm_per_s,
            "per_s");
  json->Add(section, prefix + "learned_lookups_warm", r.learned_warm_per_s,
            "per_s");
  json->Add(section, prefix + "batched_lookups_warm", r.batched_warm_per_s,
            "per_s");
  json->Add(section, prefix + "plain_lookups_evicted", r.plain_cold_per_s,
            "per_s");
  json->Add(section, prefix + "learned_lookups_evicted",
            r.learned_cold_per_s, "per_s");
  json->Add(section, prefix + "batched_lookups_evicted",
            r.batched_cold_per_s, "per_s");
  json->Add(section, prefix + "speedup_batched_vs_plain_evicted", r.speedup,
            "x");
}

/// One dataset: serving-scale lookup section, registry-scale aggregation
/// section. When \p keep is non-null the serving text/SA move into it on
/// return (for section reuse) instead of being freed.
FallbackRow RunDataset(const char* name, bench::BenchJson* json,
                       ServingSet* keep) {
  const DatasetSpec& spec = DatasetSpecByName(name);
  ServingSet set = MakeServingSet(spec);
  const Text& text = set.text;
  const std::vector<index_t>& sa = set.sa;

  LearnedSa model;
  model.Build(text, sa);

  FallbackRow row;
  row.name = name;
  row.model_segments = model.num_segments();
  row.model_mb = static_cast<double>(model.SizeInBytes()) / 1e6;

  row.short_set = TimeLookups(model, text, sa, MakePatterns(text, 0x5EED));
  row.zipf_set = TimeLookups(model, text, sa, MakeZipfPatterns(text, 0x21BF));

  // Occurrence aggregation (registry scale): locate every distinct 4-byte
  // fragment at a coarse stride and aggregate each interval both ways.
  // Interval walks are SA-ordered random access into SA and PSW — exactly
  // what the prefetched visit hides.
  const WeightedString ws = MakeDataset(spec, bench::ScaledLength(spec));
  const Text& reg_text = ws.text();
  const std::vector<index_t> reg_sa = BuildSuffixArray(reg_text);
  const PrefixSumWeights psw(ws);
  std::vector<SaInterval> agg_intervals;
  u64 total_occ = 0;
  for (index_t i = 0; i + 4 <= ws.size() && agg_intervals.size() < 512;
       i += 1543) {
    const Text frag = ws.Fragment(i, 4);
    const SaInterval iv = FindSaInterval(reg_text, reg_sa, frag);
    if (!iv.IsEmpty()) {
      agg_intervals.push_back(iv);
      total_occ += iv.Count();
    }
  }
  const ExhaustiveQueryEngine engine(reg_text, reg_sa, psw,
                                     GlobalUtilityKind::kSum);
  double agg_sink = 0;
  const double naive_s = BestOf([&] {
    for (const SaInterval iv : agg_intervals) {
      UtilityAccumulator acc;
      for (index_t k = iv.lb; k <= iv.rb; ++k) {
        acc.Add(psw.LocalUtility(reg_sa[k], 4), GlobalUtilityKind::kSum);
      }
      agg_sink += acc.Finalize(GlobalUtilityKind::kSum);
    }
  });
  const double prefetch_s = BestOf([&] {
    for (const SaInterval iv : agg_intervals) {
      agg_sink += engine.Aggregate(iv, 4).utility;
    }
  });
  row.agg_naive_mocc_s = naive_s > 0 ? total_occ / naive_s / 1e6 : 0;
  row.agg_prefetch_mocc_s = prefetch_s > 0 ? total_occ / prefetch_s / 1e6 : 0;
  if (agg_sink == 42.5) std::printf("(unreachable)\n");

  const std::string section = std::string("fallback.") + name;
  AddLookupJson(json, section, "", row.short_set);
  AddLookupJson(json, section, "zipf_", row.zipf_set);
  json->Add(section, "model_payload", row.model_mb * 1e6, "bytes");
  json->Add(section, "model_segments",
            static_cast<double>(row.model_segments), "count");
  json->Add(section, "agg_naive", row.agg_naive_mocc_s, "Mocc_per_s");
  json->Add(section, "agg_prefetch", row.agg_prefetch_mocc_s, "Mocc_per_s");
  if (keep != nullptr) *keep = std::move(set);
  return row;
}

void RunEpsilonSweep(const char* name, const ServingSet& set,
                     bench::BenchJson* json) {
  const Text& text = set.text;
  const std::vector<index_t>& sa = set.sa;
  const std::vector<Text> patterns = MakePatterns(text, 0xE9);
  std::vector<PatternSpan> spans;
  for (const Text& p : patterns) spans.emplace_back(p.data(), p.size());
  std::vector<SaInterval> out(patterns.size());

  TablePrinter table(std::string("Error-bound sweep on ") + name +
                     " (batched learned lookups, LLC evicted)");
  table.SetHeader({"epsilon", "segments", "payload (KB)", "lookups/s"});
  for (const u32 eps : {8u, 16u, 32u, 64u, 128u, 256u}) {
    LearnedSa model;
    model.Build(text, sa, {eps});
    const double seconds = ColdBestOf([&] {
      model.FindIntervalBatch(text, sa, spans, out);
    });
    const double per_s = seconds > 0 ? patterns.size() / seconds : 0;
    table.AddRow({TablePrinter::Num(eps, 0),
                  TablePrinter::Num(static_cast<double>(model.num_segments()), 0),
                  TablePrinter::Num(model.SizeInBytes() / 1e3, 1),
                  TablePrinter::Num(per_s, 0)});
    const std::string section = "fallback.eps_sweep";
    const std::string prefix = "eps" + std::to_string(eps);
    json->Add(section, prefix + "_segments",
              static_cast<double>(model.num_segments()), "count");
    json->Add(section, prefix + "_payload",
              static_cast<double>(model.SizeInBytes()), "bytes");
    json->Add(section, prefix + "_batched_lookups", per_s, "per_s");
  }
  table.Print();
}

}  // namespace
}  // namespace usi

int main(int argc, char** argv) {
  const usi::bench::BenchArgs args = usi::bench::ParseBenchArgs(argc, argv);
  (void)args.threads;
  usi::bench::PrintBanner("bench_fallback",
                          "table-miss path: plain vs learned last-mile SA "
                          "search");
  usi::bench::BenchJson json;

  std::vector<usi::FallbackRow> rows;
  usi::ServingSet hum;  // Kept for the ε sweep.
  // Ordered smallest to largest; the last row is the acceptance row.
  for (const char* name : {"XML", "ADV", "HUM"}) {
    const bool is_hum = std::string(name) == "HUM";
    rows.push_back(usi::RunDataset(name, &json, is_hum ? &hum : nullptr));
  }

  usi::TablePrinter warm_table(
      "Miss-path interval lookups, warm LLC (best of 3, byte-identical "
      "answers)");
  warm_table.SetHeader({"dataset", "patterns", "plain/s", "learned/s",
                        "batched/s", "model (MB)", "segments"});
  for (const auto& row : rows) {
    for (const auto& [set, r] : {std::pair{"4-16", &row.short_set},
                                 std::pair{"zipf 4-64", &row.zipf_set}}) {
      warm_table.AddRow(
          {row.name, set, usi::TablePrinter::Num(r->plain_warm_per_s, 0),
           usi::TablePrinter::Num(r->learned_warm_per_s, 0),
           usi::TablePrinter::Num(r->batched_warm_per_s, 0),
           usi::TablePrinter::Num(row.model_mb, 2),
           usi::TablePrinter::Num(static_cast<double>(row.model_segments),
                                  0)});
    }
  }
  warm_table.Print();

  usi::TablePrinter cold_table(
      "Miss-path interval lookups, LLC evicted before each repeat (the "
      "sharded-serving regime)");
  cold_table.SetHeader({"dataset", "patterns", "plain/s", "learned/s",
                        "batched/s", "speedup"});
  for (const auto& row : rows) {
    for (const auto& [set, r] : {std::pair{"4-16", &row.short_set},
                                 std::pair{"zipf 4-64", &row.zipf_set}}) {
      cold_table.AddRow(
          {row.name, set, usi::TablePrinter::Num(r->plain_cold_per_s, 0),
           usi::TablePrinter::Num(r->learned_cold_per_s, 0),
           usi::TablePrinter::Num(r->batched_cold_per_s, 0),
           usi::TablePrinter::Num(r->speedup, 1) + "x"});
    }
  }
  cold_table.Print();

  usi::TablePrinter agg_table(
      "Occurrence aggregation (SA-ordered PSW walks)");
  agg_table.SetHeader({"dataset", "naive (Mocc/s)", "prefetched (Mocc/s)"});
  for (const auto& row : rows) {
    agg_table.AddRow({row.name,
                      usi::TablePrinter::Num(row.agg_naive_mocc_s, 1),
                      usi::TablePrinter::Num(row.agg_prefetch_mocc_s, 1)});
  }
  agg_table.Print();

  usi::RunEpsilonSweep("HUM", hum, &json);

  const usi::FallbackRow& largest = rows.back();
  std::printf("\nbatched learned vs plain binary search on %s: %.1fx "
              "(acceptance bar: 3.0x; speedup = batched lookups/s / plain "
              "lookups/s, LLC evicted)\n",
              largest.name.c_str(), largest.short_set.speedup);
  json.Add("fallback.summary", "largest_text_speedup",
           largest.short_set.speedup, "x");

  if (!args.json_path.empty() &&
      !json.WriteTo(args.json_path, "bench_fallback")) {
    return 1;
  }
  return 0;
}
