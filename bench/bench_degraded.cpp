// Degradation ladder, quantified: (a) answered-query goodput at saturation
// with degradation ON vs the PR 8 reject-only baseline — sheds that answer
// from the tier must lift goodput strictly above sheds that answer nothing;
// (b) the sketch rung's bound honesty — the measured bound-violation rate
// over distinct patterns vs the advertised (epsilon, delta) guarantee;
// (c, failpoint builds only) quarantine serving: answered fraction when the
// index is gone and every answer comes from the tier; and (d) the exact
// path's record cost: ns per answer of a per-answer RecordExact loop vs
// RecordExactBatch over three tiers that together exceed a core's L2.
// --json PATH emits BENCH_degraded.json for the CI perf artifact.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_common.hpp"
#include "usi/core/degraded_tier.hpp"
#include "usi/core/multi_service.hpp"
#include "usi/core/usi_index.hpp"
#include "usi/core/workload.hpp"
#include "usi/text/dataset.hpp"
#include "usi/util/failpoint.hpp"
#include "usi/util/memory.hpp"
#include "usi/util/rng.hpp"
#include "usi/util/table_printer.hpp"

namespace usi {
namespace {

/// Zipf hot-pattern traffic (core/workload.hpp): the shape the tier's cache
/// admission is built for — most queries hit a small hot pool.
std::vector<Text> MakePatterns(const Text& text) {
  ZipfWorkloadOptions options;
  options.num_queries = 400;
  options.pool_size = 48;
  options.s = 1.1;
  options.hot_fraction = 0.9;
  options.min_len = 2;
  options.max_len = 12;
  options.seed = 0xBEEF;
  return MakeWorkloadZipf(text, options).patterns;
}

struct SaturationResult {
  u64 served_batches = 0;
  u64 shed_batches = 0;
  u64 answered_queries = 0;  ///< Exact + tier answers (kNone slots excluded).
  double goodput_qps = 0;
};

/// Hammers the service with \p threads concurrent clients for ~\p seconds.
/// Answered queries = exact batches * batch size + tier-rung answers (the
/// service counts those in stats().degraded_answers).
SaturationResult Saturate(UsiMultiService& service,
                          const std::vector<MultiQuery>& queries, int threads,
                          double seconds, bool allow_degraded) {
  const UsiMultiStats before = service.stats();
  std::atomic<bool> stop{false};
  std::atomic<u64> ok{0};
  std::atomic<u64> shed{0};
  MultiBatchOptions batch_options;
  batch_options.allow_degraded = allow_degraded;
  std::vector<std::thread> hammers;
  for (int t = 0; t < threads; ++t) {
    hammers.emplace_back([&] {
      std::vector<QueryResult> results(queries.size());
      while (!stop.load(std::memory_order_relaxed)) {
        const ServeStatus status =
            service.QueryBatchInto(queries, results, batch_options);
        (status == ServeStatus::kOk ? ok : shed).fetch_add(1);
      }
    });
  }
  Timer timer;
  while (timer.ElapsedSeconds() < seconds) std::this_thread::yield();
  stop.store(true);
  for (std::thread& hammer : hammers) hammer.join();

  SaturationResult result;
  result.served_batches = ok.load();
  result.shed_batches = shed.load();
  result.answered_queries =
      ok.load() * queries.size() +
      (service.stats().degraded_answers - before.degraded_answers);
  result.goodput_qps =
      static_cast<double>(result.answered_queries) / timer.ElapsedSeconds();
  return result;
}

/// (a) Saturation goodput: same cost cap, same hammer, reject-only vs
/// degradation on. The degraded run answers its sheds from the tier, so its
/// answered-query goodput must come out strictly ahead.
void RunSaturationComparison(const WeightedString& ws,
                             const std::vector<MultiQuery>& queries,
                             bench::BenchJson& json) {
  constexpr int kHammerThreads = 4;
  constexpr double kWindow = 0.25;

  double batch_ms;
  {
    UsiMultiServiceOptions options;
    UsiMultiService service(options);
    service.SubmitText("t", ws);
    service.WaitForBuilds();
    std::vector<QueryResult> results(queries.size());
    service.QueryBatchInto(queries, results);  // Warm-up.
    Timer timer;
    for (int i = 0; i < 8; ++i) service.QueryBatchInto(queries, results);
    batch_ms = timer.ElapsedSeconds() / 8 * 1e3;
  }

  const auto run = [&](bool allow_degraded) {
    UsiMultiServiceOptions options;
    options.max_inflight_cost_ms = 2 * batch_ms;
    UsiMultiService service(options);
    service.SubmitText("t", ws);
    service.WaitForBuilds();
    // Warm the exact path AND the tier (lone batches always admit).
    std::vector<QueryResult> results(queries.size());
    service.QueryBatchInto(queries, results);
    return Saturate(service, queries, kHammerThreads, kWindow,
                    allow_degraded);
  };
  const SaturationResult reject_only = run(false);
  const SaturationResult degraded = run(true);

  TablePrinter table("Saturation goodput — " +
                     std::to_string(kHammerThreads) +
                     " hammer threads, batch=" +
                     TablePrinter::Int(queries.size()) +
                     ", cost cap = 2 avg batches");
  table.SetHeader({"mode", "goodput qps", "served", "shed", "answered"});
  const auto row = [&](const char* name, const SaturationResult& r) {
    table.AddRow({name,
                  TablePrinter::Int(static_cast<long long>(r.goodput_qps)),
                  TablePrinter::Int(static_cast<long long>(r.served_batches)),
                  TablePrinter::Int(static_cast<long long>(r.shed_batches)),
                  TablePrinter::Int(
                      static_cast<long long>(r.answered_queries))});
  };
  row("reject-only (PR 8)", reject_only);
  row("degraded ladder", degraded);
  table.Print();
  std::printf("  goodput ratio (degraded / reject-only): %.2f\n\n",
              reject_only.goodput_qps == 0
                  ? 0
                  : degraded.goodput_qps / reject_only.goodput_qps);

  json.Add("saturation", "goodput_reject_only", reject_only.goodput_qps,
           "qps");
  json.Add("saturation", "goodput_degraded", degraded.goodput_qps, "qps");
  json.Add("saturation", "shed_reject_only",
           static_cast<double>(reject_only.shed_batches), "count");
  json.Add("saturation", "shed_degraded",
           static_cast<double>(degraded.shed_batches), "count");
}

/// (b) Bound honesty of the sketch rung: record distinct patterns' exact
/// answers into a deliberately narrow sketch (cache rung off so every
/// lookup is an estimate), then measure how often the estimate exceeds the
/// advertised bound. The CMS guarantee says at most delta = e^-depth.
void RunBoundViolationRate(const WeightedString& ws,
                           bench::BenchJson& json) {
  UsiOptions build;
  build.threads = 1;
  const UsiIndex index(ws, build);

  DegradedTierOptions options;
  options.cache_capacity = 0;
  options.sketch_width = 256;  // Narrow on purpose: force collisions.
  options.sketch_depth = 4;
  DegradedTier tier(options);

  // Distinct patterns only (the filter would drop duplicates anyway).
  Rng rng(0xB0B0);
  std::set<Text> distinct;
  for (int i = 0; i < 4'000; ++i) {
    const index_t start = static_cast<index_t>(rng.UniformBelow(ws.size()));
    const index_t max_len = std::min<index_t>(10, ws.size() - start);
    distinct.insert(ws.Fragment(
        start, static_cast<index_t>(rng.UniformInRange(1, max_len))));
  }
  const std::vector<Text> patterns(distinct.begin(), distinct.end());

  std::vector<QueryResult> exact;
  for (const Text& p : patterns) exact.push_back(index.Query(p));
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    tier.RecordExact(DegradedTier::KeyFor(patterns[i]), exact[i]);
  }

  std::size_t answered = 0, violations = 0;
  double total_error = 0, bound = 0;
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    QueryResult got;
    if (!tier.TryAnswer(DegradedTier::KeyFor(patterns[i]), &got)) continue;
    ++answered;
    bound = got.error_bound;
    const double error = got.utility - exact[i].utility;
    total_error += error;
    if (error > got.error_bound + 1e-9) ++violations;
  }
  const DegradedTierStats stats = tier.stats();
  const double violation_rate =
      answered == 0 ? 0
                    : static_cast<double>(violations) /
                          static_cast<double>(answered);
  const double delta = std::exp(-static_cast<double>(stats.sketch_depth));

  TablePrinter table("Sketch bound honesty — width=" +
                     TablePrinter::Int(stats.sketch_width) + ", depth=" +
                     TablePrinter::Int(stats.sketch_depth) + ", " +
                     TablePrinter::Int(answered) + " distinct patterns");
  table.SetHeader({"metric", "value"});
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.4f", violation_rate);
  table.AddRow({"bound violation rate", buffer});
  std::snprintf(buffer, sizeof buffer, "%.4f", delta);
  table.AddRow({"advertised delta (e^-depth)", buffer});
  std::snprintf(buffer, sizeof buffer, "%.4f", bound);
  table.AddRow({"advertised bound (eps * mass)", buffer});
  std::snprintf(buffer, sizeof buffer, "%.4f",
                answered == 0 ? 0 : total_error / answered);
  table.AddRow({"mean over-estimate", buffer});
  table.Print();
  std::printf("\n");

  json.Add("bounds", "violation_rate", violation_rate, "fraction");
  json.Add("bounds", "advertised_delta", delta, "fraction");
  json.Add("bounds", "mean_overestimate",
           answered == 0 ? 0 : total_error / answered, "utility");
}

/// (c) Quarantine serving (armed failpoints): the index is gone — build
/// lane poisoned, mapped serving faulted — and the warmed tier answers
/// alone. Reports the answered fraction degraded vs reject-only (which
/// answers nothing by construction).
void RunQuarantineServing(const WeightedString& ws,
                          const std::vector<MultiQuery>& queries,
                          bench::BenchJson& json) {
  UsiMultiServiceOptions options;
  options.max_build_retries = 0;
  UsiMultiService service(options);
  service.SubmitText("t", ws);
  service.WaitForBuilds();
  std::vector<QueryResult> results(queries.size());
  service.QueryBatchInto(queries, results);  // Warm the tier.

  failpoint::Arm("serve.mapped_fault", failpoint::Action::kError);
  failpoint::Arm("multi.build", failpoint::Action::kThrow);

  constexpr int kRounds = 50;
  u64 reject_answered = 0, degraded_answered = 0, degraded_batches = 0;
  for (int round = 0; round < kRounds; ++round) {
    MultiBatchOptions batch_options;
    if (service.QueryBatchInto(queries, results, batch_options) ==
        ServeStatus::kOk) {
      reject_answered += queries.size();
    }
    batch_options.allow_degraded = true;
    if (service.QueryBatchInto(queries, results, batch_options) ==
        ServeStatus::kDegraded) {
      ++degraded_batches;
      for (const QueryResult& r : results) {
        degraded_answered += r.provenance != AnswerProvenance::kNone ? 1 : 0;
      }
    }
  }
  failpoint::DisarmAll();

  const double total = static_cast<double>(kRounds * queries.size());
  TablePrinter table("Quarantine serving — index faulted, " +
                     std::to_string(kRounds) + " rounds per mode");
  table.SetHeader({"mode", "answered", "fraction"});
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.3f",
                static_cast<double>(reject_answered) / total);
  table.AddRow(
      {"reject-only (PR 8)", TablePrinter::Int(reject_answered), buffer});
  std::snprintf(buffer, sizeof buffer, "%.3f",
                static_cast<double>(degraded_answered) / total);
  table.AddRow(
      {"degraded ladder", TablePrinter::Int(degraded_answered), buffer});
  table.Print();
  std::printf("\n");

  json.Add("quarantine", "answered_fraction_reject",
           static_cast<double>(reject_answered) / total, "fraction");
  json.Add("quarantine", "answered_fraction_degraded",
           static_cast<double>(degraded_answered) / total, "fraction");
  json.Add("quarantine", "degraded_batches",
           static_cast<double>(degraded_batches), "count");
}

/// (d) Record-path cost, single-threaded. Three default-geometry tiers
/// (~0.9 MB of cache, filter and count-min state each, so ~2.6 MB
/// together, and twice that for the two modes: more than a 2 MiB L2) learn
/// a W2-like stream — mostly short
/// frequent-looking fragments plus a 2.5% tail of long random substrings
/// (up to 5000 symbols) — in round-robin mixed-text batches of 256, the
/// shape the multi-service serves. The per-answer mode calls
/// RecordExact(KeyFor(p), r) for every answer; the batch mode gathers each
/// text's group and calls RecordExactBatch once per group. Both modes feed
/// their own identical tier set with the same stream, alternating passes;
/// the median pass is reported. Then two side figures: how well the cache
/// learned (the share of each text's capacity/4 most-recorded patterns a
/// degraded lookup answers from the cache rung), and the cost of one
/// Clear(), which every content change (an AppendText, a publish) pays
/// under the tier mutex.
void RunRecordPath(const WeightedString& ws, bench::BenchJson& json) {
  constexpr std::size_t kTexts = 3;
  constexpr std::size_t kBatch = 256;
  constexpr std::size_t kAnswers = 3 * 32'768;
  constexpr std::size_t kPoolPerText = 16'384;
  constexpr int kPasses = 7;
  const Text& text = ws.text();
  const index_t n = static_cast<index_t>(text.size());

  Rng rng(0x4EC0BD);
  std::vector<std::vector<Text>> pools(kTexts);
  for (std::vector<Text>& pool : pools) {
    for (std::size_t i = 0; i < kPoolPerText; ++i) {
      const index_t len = static_cast<index_t>(
          rng.UniformInRange(1, std::min<index_t>(16, n)));
      pool.push_back(
          ws.Fragment(static_cast<index_t>(rng.UniformBelow(n - len + 1)),
                      len));
    }
  }
  std::vector<Text> stream;
  std::vector<QueryResult> answers;
  for (std::size_t i = 0; i < kAnswers; ++i) {
    const std::size_t t = i % kTexts;
    if (rng.UniformDouble() < 0.025) {
      const index_t len = static_cast<index_t>(
          rng.UniformInRange(1, std::min<index_t>(5'000, n)));
      stream.push_back(ws.Fragment(
          static_cast<index_t>(rng.UniformBelow(n - len + 1)), len));
    } else {
      stream.push_back(pools[t][rng.UniformBelow(kPoolPerText)]);
    }
    QueryResult answer;
    answer.utility = rng.UniformDouble() * 100.0;
    answer.occurrences = static_cast<index_t>(1 + rng.UniformBelow(64));
    answers.push_back(answer);
  }

  // Per-text gathered groups of every batch, as the serving path builds
  // them (spans into the stream, answers copied alongside).
  struct Group {
    std::vector<PatternSpan> patterns;
    std::vector<QueryResult> results;
  };
  std::vector<std::array<Group, kTexts>> batches(kAnswers / kBatch);
  for (std::size_t i = 0; i < kAnswers; ++i) {
    Group& group = batches[i / kBatch][i % kTexts];
    group.patterns.push_back(stream[i]);
    group.results.push_back(answers[i]);
  }

  using Tiers = std::vector<std::unique_ptr<DegradedTier>>;
  const auto make_tiers = [] {
    Tiers tiers;
    for (std::size_t t = 0; t < kTexts; ++t) {
      tiers.push_back(std::make_unique<DegradedTier>());
    }
    return tiers;
  };
  Tiers loop_tiers = make_tiers();
  Tiers batch_tiers = make_tiers();
  const auto loop_pass = [&] {
    Timer timer;
    for (std::size_t i = 0; i < kAnswers; ++i) {
      loop_tiers[i % kTexts]->RecordExact(DegradedTier::KeyFor(stream[i]),
                                          answers[i]);
    }
    return timer.ElapsedSeconds() * 1e9 / static_cast<double>(kAnswers);
  };
  const auto batch_pass = [&] {
    Timer timer;
    for (const std::array<Group, kTexts>& batch : batches) {
      for (std::size_t t = 0; t < kTexts; ++t) {
        batch_tiers[t]->RecordExactBatch(batch[t].patterns, batch[t].results,
                                         batch_tiers[t]->epoch());
      }
    }
    return timer.ElapsedSeconds() * 1e9 / static_cast<double>(kAnswers);
  };
  loop_pass();  // Warm-up: both tier sets reach their steady occupancy.
  batch_pass();
  std::vector<double> loop_ns, batch_ns;
  for (int pass = 0; pass < kPasses; ++pass) {
    loop_ns.push_back(loop_pass());
    batch_ns.push_back(batch_pass());
  }
  std::sort(loop_ns.begin(), loop_ns.end());
  std::sort(batch_ns.begin(), batch_ns.end());
  const double loop_median = loop_ns[kPasses / 2];
  const double batch_median = batch_ns[kPasses / 2];

  std::size_t footprint = 0;
  for (const auto& tier : batch_tiers) footprint += tier->SizeInBytes();
  TablePrinter table("Record path — " + std::to_string(kTexts) +
                     " tiers (" + FormatBytes(footprint) + "), " +
                     TablePrinter::Int(kAnswers) +
                     " answers in mixed batches of " +
                     TablePrinter::Int(kBatch) + ", 1 thread");
  table.SetHeader({"mode", "ns/answer (median)", "ns/answer (best)"});
  char median[32], best[32];
  std::snprintf(median, sizeof median, "%.1f", loop_median);
  std::snprintf(best, sizeof best, "%.1f", loop_ns.front());
  table.AddRow({"RecordExact per answer", median, best});
  std::snprintf(median, sizeof median, "%.1f", batch_median);
  std::snprintf(best, sizeof best, "%.1f", batch_ns.front());
  table.AddRow({"RecordExactBatch per group", median, best});
  table.Print();
  std::printf("  speedup (per-answer / batch): %.2fx\n",
              batch_median == 0 ? 0 : loop_median / batch_median);

  // Hot pool: per text, the capacity/4 patterns the stream recorded most
  // (identified by the tier's own key).
  std::size_t hot_lookups = 0, hot_cached = 0;
  for (std::size_t t = 0; t < kTexts; ++t) {
    std::unordered_map<u64, std::pair<std::size_t, PatternKey>> counts;
    for (std::size_t i = t; i < kAnswers; i += kTexts) {
      const PatternKey key = DegradedTier::KeyFor(stream[i]);
      auto& [count, stored] = counts[key.fp];
      ++count;
      stored = key;
    }
    std::vector<std::pair<std::size_t, PatternKey>> by_count;
    for (const auto& entry : counts) by_count.push_back(entry.second);
    const std::size_t hot = std::min(
        by_count.size(), batch_tiers[t]->stats().cache_capacity / 4);
    std::partial_sort(by_count.begin(), by_count.begin() + hot,
                      by_count.end(), [](const auto& a, const auto& b) {
                        return a.first > b.first;
                      });
    for (std::size_t i = 0; i < hot; ++i) {
      QueryResult out;
      ++hot_lookups;
      hot_cached += batch_tiers[t]->TryAnswer(by_count[i].second, &out) &&
                    out.provenance == AnswerProvenance::kCached;
    }
  }
  const double hit_rate =
      hot_lookups == 0 ? 0.0
                       : static_cast<double>(hot_cached) /
                             static_cast<double>(hot_lookups);

  // One Clear() of a learned tier; the median of several (each re-learns
  // one batch first so the reset has state to drop).
  std::vector<double> clear_us;
  for (int pass = 0; pass < kPasses; ++pass) {
    DegradedTier& tier = *batch_tiers[pass % kTexts];
    const Group& group = batches[pass][pass % kTexts];
    tier.RecordExactBatch(group.patterns, group.results, tier.epoch());
    Timer timer;
    tier.Clear();
    clear_us.push_back(timer.ElapsedSeconds() * 1e6);
  }
  std::sort(clear_us.begin(), clear_us.end());
  std::printf("  cache hit rate over the hot pool: %.3f; Clear(): %.1f us\n\n",
              hit_rate, clear_us[kPasses / 2]);

  json.Add("record_path", "per_answer_ns", loop_median, "ns/answer");
  json.Add("record_path", "batch_ns", batch_median, "ns/answer");
  json.Add("record_path", "tier_footprint_bytes",
           static_cast<double>(footprint), "bytes");
  json.Add("record_path", "cache_hit_rate", hit_rate, "fraction");
  json.Add("record_path", "clear_us", clear_us[kPasses / 2], "us");
}

int Main(int argc, char** argv) {
  const bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  bench::PrintBanner("bench_degraded",
                     "degradation ladder: goodput + bound honesty");

  const DatasetSpec* xml = nullptr;
  for (const DatasetSpec& spec : AllDatasetSpecs()) {
    if (spec.name == "XML") xml = &spec;
  }
  if (xml == nullptr) {
    std::fprintf(stderr, "XML dataset spec missing\n");
    return 1;
  }
  const WeightedString ws = MakeDataset(
      *xml, std::min<index_t>(bench::ScaledLength(*xml), 60'000));
  const std::vector<Text> patterns = MakePatterns(ws.text());
  std::vector<MultiQuery> queries;
  for (const Text& p : patterns) queries.push_back({"t", p});

  bench::BenchJson json;
  RunSaturationComparison(ws, queries, json);
  RunBoundViolationRate(ws, json);
  RunQuarantineServing(ws, queries, json);
  RunRecordPath(ws, json);

  if (!args.json_path.empty() && !json.WriteTo(args.json_path, "degraded")) {
    std::fprintf(stderr, "cannot write %s\n", args.json_path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace usi

int main(int argc, char** argv) { return usi::Main(argc, argv); }
