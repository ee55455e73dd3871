// Update tier: what an append costs and what it buys. Four sections over
// one HUM-like text: (a) AppendText latency percentiles with background
// compactions cycling underneath, (b) append-visibility latency vs the
// full-rebuild path (UpdateText + wait) — the tier's reason to exist; the
// ratio is the headline number, (c) the compaction publish pause (entry
// lock hold while the generation swaps and the successor overlay
// warm-starts) vs the build it hides, and (d) serving qps while an
// appender churns vs while full rebuilds churn vs quiescent. A fifth, (e),
// times DeltaOverlay::Append alone, per symbol, with the overlay's bytes
// per symbol, on four texts that shape its suffix tree differently. --json
// PATH emits BENCH_update.json for the CI perf-trajectory artifact.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "usi/core/multi_service.hpp"
#include "usi/core/update_tier.hpp"
#include "usi/parallel/thread_pool.hpp"
#include "usi/text/dataset.hpp"
#include "usi/text/generators.hpp"
#include "usi/util/rng.hpp"

namespace usi {
namespace {

constexpr const char* kId = "HUM";

WeightedString MakeBaseText() {
  for (const DatasetSpec& spec : AllDatasetSpecs()) {
    if (spec.name == kId) {
      return MakeDataset(spec,
                         std::min<index_t>(bench::ScaledLength(spec), 60'000));
    }
  }
  USI_CHECK(false);
  return WeightedString({}, {});
}

/// Scaled append volume: enough to force several compactions at the
/// threshold the sections use, small enough for the smoke run.
index_t AppendVolume(const WeightedString& base) {
  return std::max<index_t>(512, base.size() / 4);
}

double Percentile(std::vector<double>& sorted_in_place, double p) {
  std::sort(sorted_in_place.begin(), sorted_in_place.end());
  const std::size_t i = static_cast<std::size_t>(
      p * static_cast<double>(sorted_in_place.size() - 1));
  return sorted_in_place[i];
}

std::vector<Text> MakePatterns(const WeightedString& ws, u64 seed) {
  Rng rng(seed);
  std::vector<Text> patterns;
  for (int i = 0; i < 150; ++i) {
    const index_t start = static_cast<index_t>(rng.UniformBelow(ws.size()));
    const index_t max_len = std::min<index_t>(12, ws.size() - start);
    patterns.push_back(ws.Fragment(
        start, static_cast<index_t>(rng.UniformInRange(2, max_len))));
  }
  return patterns;
}

double QueriesPerSecond(UsiMultiService& service,
                        const std::vector<MultiQuery>& queries) {
  std::vector<QueryResult> results(queries.size());
  USI_CHECK(service.QueryBatchInto(queries, results) == ServeStatus::kOk);
  std::size_t served = 0;
  Timer timer;
  do {
    USI_CHECK(service.QueryBatchInto(queries, results) == ServeStatus::kOk);
    served += queries.size();
  } while (timer.ElapsedSeconds() < 0.25 && served < 4'000'000);
  return static_cast<double>(served) / timer.ElapsedSeconds();
}

void RunAppendLatency(const WeightedString& base, bench::BenchJson& json) {
  UsiMultiServiceOptions options;
  options.delta_compact_threshold = 1024;
  UsiMultiService service(options);
  service.SubmitText(kId, base);
  service.WaitForBuilds();

  const index_t volume = AppendVolume(base);
  Rng rng(0x0ADD);
  Text span(1, Symbol{0});
  const std::vector<double> weight = {1.0};
  std::vector<double> latency_us;
  latency_us.reserve(volume);
  for (index_t i = 0; i < volume; ++i) {
    span[0] = base.letter(static_cast<index_t>(rng.UniformBelow(base.size())));
    const auto t0 = std::chrono::steady_clock::now();
    USI_CHECK(service.AppendText(kId, span, weight) == ServeStatus::kOk);
    const auto t1 = std::chrono::steady_clock::now();
    latency_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  service.WaitForBuilds();
  const auto stats = service.StatsFor(kId);
  USI_CHECK(stats.has_value());

  const double p50 = Percentile(latency_us, 0.50);
  const double p99 = Percentile(latency_us, 0.99);
  const double worst = latency_us.back();  // Sorted by Percentile.
  TablePrinter table("AppendText latency — " + std::to_string(volume) +
                     " single-symbol appends over n=" +
                     TablePrinter::Int(base.size()) +
                     " (compaction threshold 1024, background lanes)");
  table.SetHeader({"metric", "value"});
  table.AddRow({"p50", TablePrinter::Int(static_cast<long long>(p50)) + " us"});
  table.AddRow({"p99", TablePrinter::Int(static_cast<long long>(p99)) + " us"});
  table.AddRow({"max", TablePrinter::Int(static_cast<long long>(worst)) +
                           " us"});
  table.AddRow({"compactions", TablePrinter::Int(static_cast<long long>(
                                   stats->compactions))});
  table.Print();
  json.Add("append_latency", "p50_us", p50, "us");
  json.Add("append_latency", "p99_us", p99, "us");
  json.Add("append_latency", "compactions",
           static_cast<double>(stats->compactions), "count");
}

void RunVisibilityVsRebuild(const WeightedString& base,
                            bench::BenchJson& json) {
  // The tier's headline: an appended symbol is queryable the moment
  // AppendText returns; the pre-tier path re-indexed the whole text. Both
  // measured as end-to-end visibility latency (mutate -> query sees it).
  constexpr int kSamples = 16;
  Rng rng(0xF457);
  Text span(1, Symbol{0});
  const std::vector<double> weight = {1.0};

  double append_total_us = 0;
  {
    UsiMultiServiceOptions options;
    options.delta_compact_threshold = 0;  // Pure overlay path.
    UsiMultiService service(options);
    service.SubmitText(kId, base);
    service.WaitForBuilds();
    for (int i = 0; i < kSamples; ++i) {
      span[0] =
          base.letter(static_cast<index_t>(rng.UniformBelow(base.size())));
      Timer timer;
      USI_CHECK(service.AppendText(kId, span, weight) == ServeStatus::kOk);
      append_total_us += timer.ElapsedMicros();  // Visible at return.
    }
  }

  double rebuild_total_us = 0;
  {
    UsiMultiService service((UsiMultiServiceOptions()));
    service.SubmitText(kId, base);
    service.WaitForBuilds();
    Text grown = base.text();
    std::vector<double> weights = base.weights();
    for (int i = 0; i < kSamples; ++i) {
      grown.push_back(
          base.letter(static_cast<index_t>(rng.UniformBelow(base.size()))));
      weights.push_back(1.0);
      Timer timer;
      service.UpdateText(kId, WeightedString(grown, weights));
      USI_CHECK(service.WaitForText(kId) == BuildState::kReady);
      rebuild_total_us += timer.ElapsedMicros();  // Visible at publish.
    }
  }

  const double append_us = append_total_us / kSamples;
  const double rebuild_us = rebuild_total_us / kSamples;
  const double speedup = rebuild_us / append_us;
  TablePrinter table("Append visibility — update tier vs full-rebuild path (" +
                     std::to_string(kSamples) + " samples, n=" +
                     TablePrinter::Int(base.size()) + ")");
  table.SetHeader({"path", "us to visible", "speedup"});
  table.AddRow({"AppendText (delta overlay)",
                TablePrinter::Int(static_cast<long long>(append_us)), "1x"});
  table.AddRow({"UpdateText + publish (rebuild)",
                TablePrinter::Int(static_cast<long long>(rebuild_us)),
                TablePrinter::Int(static_cast<long long>(speedup)) + "x"});
  table.Print();
  json.Add("visibility", "append_us", append_us, "us");
  json.Add("visibility", "rebuild_us", rebuild_us, "us");
  json.Add("visibility", "speedup", speedup, "x");
}

void RunCompactionPause(const WeightedString& base, bench::BenchJson& json) {
  UsiMultiServiceOptions options;
  options.delta_compact_threshold = 512;
  UsiMultiService service(options);
  service.SubmitText(kId, base);
  service.WaitForBuilds();

  Rng rng(0xC0AC);
  Text span(1, Symbol{0});
  const std::vector<double> weight = {1.0};
  double max_pause_us = 0;
  double last_pause_us = 0;
  constexpr int kCycles = 6;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    for (index_t i = 0; i < 512; ++i) {
      span[0] =
          base.letter(static_cast<index_t>(rng.UniformBelow(base.size())));
      USI_CHECK(service.AppendText(kId, span, weight) == ServeStatus::kOk);
    }
    service.WaitForBuilds();
    const auto stats = service.StatsFor(kId);
    USI_CHECK(stats.has_value());
    last_pause_us = static_cast<double>(stats->compact_publish_ns) / 1e3;
    max_pause_us = std::max(max_pause_us, last_pause_us);
  }
  const auto stats = service.StatsFor(kId);
  TablePrinter table("Compaction publish pause — entry-lock hold at swap (" +
                     std::to_string(kCycles) +
                     " cycles, threshold 512, n grows from " +
                     TablePrinter::Int(base.size()) + ")");
  table.SetHeader({"metric", "value"});
  table.AddRow({"max pause", TablePrinter::Int(static_cast<long long>(
                                 max_pause_us)) +
                                 " us"});
  table.AddRow({"last pause", TablePrinter::Int(static_cast<long long>(
                                  last_pause_us)) +
                                  " us"});
  table.AddRow({"compactions", TablePrinter::Int(static_cast<long long>(
                                   stats->compactions))});
  table.Print();
  json.Add("compaction", "max_pause_us", max_pause_us, "us");
  json.Add("compaction", "compactions",
           static_cast<double>(stats->compactions), "count");
}

void RunServingUnderChurn(const WeightedString& base, bench::BenchJson& json) {
  UsiMultiServiceOptions options;
  options.delta_compact_threshold = 1024;
  UsiMultiService service(options);
  service.SubmitText(kId, base);
  service.WaitForBuilds();

  const std::vector<Text> patterns = MakePatterns(base, 0x9E55);
  std::vector<MultiQuery> queries;
  for (const Text& p : patterns) queries.push_back({kId, p});

  const double quiescent_qps = QueriesPerSecond(service, queries);

  // Append churn: one writer streams symbols through the update tier
  // (compactions included) while the measured thread serves.
  std::atomic<bool> stop{false};
  std::atomic<u64> churn_ops{0};
  std::thread appender([&] {
    Rng rng(0xA11D);
    Text span(1, Symbol{0});
    const std::vector<double> weight = {1.0};
    while (!stop.load(std::memory_order_relaxed)) {
      span[0] =
          base.letter(static_cast<index_t>(rng.UniformBelow(base.size())));
      if (service.AppendText(kId, span, weight) == ServeStatus::kOk) {
        churn_ops.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  const double append_churn_qps = QueriesPerSecond(service, queries);
  stop.store(true);
  appender.join();
  const u64 appends_in_window = churn_ops.load();
  service.WaitForBuilds();

  // Rebuild churn: the pre-tier alternative, same serving workload.
  stop.store(false);
  std::thread rebuilder([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      service.UpdateText(kId, base);
      service.WaitForText(kId);
    }
  });
  const double rebuild_churn_qps = QueriesPerSecond(service, queries);
  stop.store(true);
  rebuilder.join();
  service.WaitForBuilds();

  TablePrinter table("Serving qps under churn — append stream vs rebuild "
                     "stream (hw threads)");
  table.SetHeader({"mode", "qps", "mutations in window"});
  table.AddRow({"quiescent",
                TablePrinter::Int(static_cast<long long>(quiescent_qps)),
                "0"});
  table.AddRow({"append churn",
                TablePrinter::Int(static_cast<long long>(append_churn_qps)),
                TablePrinter::Int(static_cast<long long>(appends_in_window))});
  table.AddRow({"rebuild churn",
                TablePrinter::Int(static_cast<long long>(rebuild_churn_qps)),
                "(continuous)"});
  table.Print();
  json.Add("churn", "qps_quiescent", quiescent_qps, "qps");
  json.Add("churn", "qps_append_churn", append_churn_qps, "qps");
  json.Add("churn", "qps_rebuild_churn", rebuild_churn_qps, "qps");
  json.Add("churn", "appends_in_window",
           static_cast<double>(appends_in_window), "count");
}

void RunOverlayAppendCost(bench::BenchJson& json) {
  // A default-sized window (delta_context 512), then appends up to 4,608
  // symbols (one default compaction threshold, 4,096, past the window) and
  // up to eight times that, for overlays that outgrow their compaction.
  // The texts span the suffix tree's shapes: at most 4 children per node
  // (DNA-like), nested markup (XML-like), up to 256 children per node, and
  // the degenerate (ab)^p. Appends go in 8-symbol spans (the size
  // perfbench's churn appender sends); only the append loop is timed, not
  // the window seeding, median of 5 fresh overlays per cell.
  constexpr index_t kWindow = 512;
  constexpr std::size_t kSpan = 8;
  constexpr int kRuns = 5;
  struct Input {
    const char* name;
    WeightedString (*make)(index_t n);
  };
  const Input inputs[] = {
      {"dna", [](index_t n) { return MakeDnaLike(n, 0xD0A); }},
      {"xml", [](index_t n) { return MakeXmlLike(n, 0xD0B); }},
      {"sigma256", [](index_t n) { return MakeRandom(n, 256, 0xD0C); }},
      {"abab", [](index_t n) { return MakePeriodic(n, 2, 0xD0D); }},
  };
  TablePrinter table("DeltaOverlay::Append alone — ns and heap bytes per "
                     "symbol (window 512 + appends, median of 5)");
  table.SetHeader({"text", "nominal", "symbols", "ns/symbol", "B/symbol"});
  for (const index_t nominal : {index_t{4'608}, index_t{36'864}}) {
    const index_t appended = std::max<index_t>(
        64, (nominal - kWindow) / bench::ScaleDivisor());
    const index_t n = kWindow + appended;
    for (const Input& input : inputs) {
      const WeightedString ws = input.make(n);
      const auto base = std::make_shared<const WeightedString>(
          ws.Prefix(kWindow));
      std::vector<double> ns_per_symbol;
      double bytes_per_symbol = 0;
      for (int run = 0; run < kRuns; ++run) {
        DeltaOverlay overlay(base, kWindow, 0, GlobalUtilityKind::kSum);
        const auto t0 = std::chrono::steady_clock::now();
        for (index_t at = kWindow; at < n; at += kSpan) {
          const std::size_t len = std::min<std::size_t>(kSpan, n - at);
          overlay.Append(
              std::span<const Symbol>(ws.text().data() + at, len),
              std::span<const double>(ws.weights().data() + at, len));
        }
        const auto t1 = std::chrono::steady_clock::now();
        ns_per_symbol.push_back(
            std::chrono::duration<double, std::nano>(t1 - t0).count() /
            appended);
        bytes_per_symbol = static_cast<double>(overlay.StatsSnapshot().bytes) /
                           static_cast<double>(n);
      }
      const double ns = Percentile(ns_per_symbol, 0.5);
      table.AddRow({input.name, TablePrinter::Int(nominal),
                    TablePrinter::Int(n), TablePrinter::Num(ns, 1),
                    TablePrinter::Num(bytes_per_symbol, 1)});
      const std::string section = std::string("overlay_append.") +
                                  input.name + "_" + std::to_string(nominal);
      json.Add(section, "ns_per_symbol", ns, "ns");
      json.Add(section, "bytes_per_symbol", bytes_per_symbol, "B");
    }
  }
  table.Print();
}

}  // namespace
}  // namespace usi

int main(int argc, char** argv) {
  const usi::bench::BenchArgs args = usi::bench::ParseBenchArgs(argc, argv);
  usi::bench::PrintBanner("bench_update",
                          "incremental update tier (AppendText + compaction)");
  std::printf("hardware concurrency: %u\n\n",
              usi::ThreadPool::HardwareConcurrency());

  const usi::WeightedString base = usi::MakeBaseText();
  usi::bench::BenchJson json;

  usi::RunAppendLatency(base, json);
  usi::RunVisibilityVsRebuild(base, json);
  usi::RunCompactionPause(base, json);
  usi::RunServingUnderChurn(base, json);
  usi::RunOverlayAppendCost(json);

  if (!args.json_path.empty()) {
    if (!json.WriteTo(args.json_path, "bench_update")) return 1;
    std::printf("\nwrote machine-readable results to %s\n",
                args.json_path.c_str());
  }
  std::printf(
      "\nShape check: append p99 should sit orders of magnitude under a "
      "rebuild, the visibility speedup should clear 100x at full scale, the "
      "compaction pause should stay microseconds (the build runs off-lock; "
      "only the swap + warm-start holds the entry), and append-churn qps "
      "should beat rebuild-churn qps.\n");
  return 0;
}
