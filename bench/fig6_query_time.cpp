// Regenerates Fig. 6a-j: average query time of UET, UAT and BSL1-4 on the
// W1 workloads (varying K) and the W2,p workloads (varying p), for all five
// datasets. The paper's headline: UET/UAT are on average 3.1x (up to 15x)
// faster than the best baseline, and improve with K and with p while the
// baselines stay flat.
//
// Every engine is driven through the unified QueryEngine contract via
// UsiService (single-threaded for the per-query figures). A final section
// per dataset reports UsiService::QueryBatch throughput — queries/sec at 1,
// 2 and hardware-concurrency threads (plus --threads N when given).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "usi/core/baselines.hpp"
#include "usi/core/usi_builder.hpp"
#include "usi/core/usi_index.hpp"
#include "usi/core/usi_service.hpp"
#include "usi/core/workload.hpp"
#include "usi/parallel/thread_pool.hpp"
#include "usi/suffix/suffix_array.hpp"
#include "usi/topk/approximate_topk.hpp"
#include "usi/topk/substring_stats.hpp"

namespace usi {
namespace {

constexpr std::size_t kQueriesPerWorkload = 2000;

/// Average per-query microseconds through a single-threaded service batch.
double AvgMicros(QueryEngine& engine, const std::vector<Text>& patterns) {
  UsiServiceOptions sequential;
  sequential.threads = 1;
  UsiService service(engine, sequential);
  const std::vector<PatternSpan> spans = AsPatternSpans(patterns);
  Timer timer;
  const std::vector<QueryResult> results = service.QueryBatch(spans);
  const double micros = timer.ElapsedSeconds() * 1e6 / patterns.size();
  double checksum = 0;
  for (const QueryResult& r : results) checksum += r.utility;
  (void)checksum;
  return micros;
}

/// Sustained QueryBatch throughput at a given pool width.
double QueriesPerSecond(QueryEngine& engine, unsigned threads,
                        const std::vector<Text>& patterns) {
  UsiServiceOptions options;
  options.threads = threads;
  UsiService service(engine, options);
  const std::vector<PatternSpan> spans = AsPatternSpans(patterns);
  service.QueryBatch(spans);  // Warm-up: page in tables, prime the pool.
  std::size_t served = 0;
  Timer timer;
  do {
    service.QueryBatch(spans);
    served += patterns.size();
  } while (timer.ElapsedSeconds() < 0.2 && served < 400'000);
  return static_cast<double>(served) / timer.ElapsedSeconds();
}

void RunDataset(const DatasetSpec& spec, const bench::BenchArgs& args,
                bench::BenchJson& json) {
  const index_t n = std::min<index_t>(bench::ScaledLength(spec), 150'000);
  const WeightedString ws = MakeDataset(spec, n);

  SubstringStats stats(ws.text());
  const TopKList pool_w1 = stats.TopK(n / 50);
  const TopKList pool_w2 = stats.TopK(n / 100);

  const std::vector<index_t> sa = BuildSuffixArray(ws.text());
  const PrefixSumWeights psw(ws);

  WorkloadOptions wopts;
  wopts.num_queries = kQueriesPerWorkload;
  wopts.random_max_len =
      spec.name == "ADV" ? 200 : (spec.name == "IOT" ? 20'000 : 5'000);
  wopts.seed = spec.seed ^ 0xBE;
  ApproximateTopKOptions approx;
  approx.rounds = spec.default_s;
  const Workload w1 = MakeWorkloadW1(ws.text(), pool_w1.items, wopts);

  // --- Fig. 6a-e: query time vs K on W1. ---
  TablePrinter by_k("Fig. 6a-e — avg W1 query time (us) vs K on " + spec.name +
                    " (n=" + TablePrinter::Int(n) + ")");
  by_k.SetHeader({"K", "UET", "UAT", "BSL1", "BSL2", "BSL3", "BSL4"});
  for (std::size_t ki = 0; ki + 1 < spec.k_sweep.size(); ++ki) {
    const u64 k = std::max<u64>(
        10, static_cast<u64>(spec.k_sweep[ki]) * n / spec.default_n);
    UsiOptions options;
    options.k = k;
    UsiIndex uet(ws, options);
    const std::unique_ptr<UsiIndex> uat =
        UsiBuilder(ws, options).Build(ApproximateTopK(ws.text(), k, approx));

    BaselineContext context;
    context.ws = &ws;
    context.sa = &sa;
    context.psw = &psw;
    context.cache_capacity = k;

    std::vector<std::string> row = {
        TablePrinter::Int(static_cast<long long>(k))};
    row.push_back(TablePrinter::Num(AvgMicros(uet, w1.patterns), 2));
    row.push_back(TablePrinter::Num(AvgMicros(*uat, w1.patterns), 2));
    for (auto kind : {BaselineKind::kBsl1, BaselineKind::kBsl2,
                      BaselineKind::kBsl3, BaselineKind::kBsl4}) {
      auto baseline = MakeBaseline(kind, context);
      row.push_back(TablePrinter::Num(AvgMicros(*baseline, w1.patterns), 2));
    }
    by_k.AddRow(std::move(row));
  }
  by_k.Print();

  // --- Fig. 6f-j: query time vs p on W2,p at the default K. ---
  const u64 k =
      std::max<u64>(10, static_cast<u64>(spec.default_k) * n / spec.default_n);
  UsiOptions options;
  options.k = k;
  UsiIndex uet(ws, options);
  const std::unique_ptr<UsiIndex> uat =
      UsiBuilder(ws, options).Build(ApproximateTopK(ws.text(), k, approx));

  TablePrinter by_p("Fig. 6f-j — avg W2,p query time (us) vs p on " +
                    spec.name + " (K=" +
                    TablePrinter::Int(static_cast<long long>(k)) + ")");
  by_p.SetHeader({"p (%)", "UET", "UAT", "BSL1", "BSL2", "BSL3", "BSL4"});
  for (u32 p : {20u, 40u, 60u, 80u}) {
    const Workload w2 =
        MakeWorkloadW2(ws.text(), pool_w2.items, pool_w1.items, p, wopts);
    BaselineContext context;
    context.ws = &ws;
    context.sa = &sa;
    context.psw = &psw;
    context.cache_capacity = k;
    std::vector<std::string> row = {TablePrinter::Int(p)};
    const double uet_us = AvgMicros(uet, w2.patterns);
    const double uat_us = AvgMicros(*uat, w2.patterns);
    json.Add(spec.name, "w2_p" + std::to_string(p) + "_uet_avg_us", uet_us,
             "us");
    json.Add(spec.name, "w2_p" + std::to_string(p) + "_uat_avg_us", uat_us,
             "us");
    row.push_back(TablePrinter::Num(uet_us, 2));
    row.push_back(TablePrinter::Num(uat_us, 2));
    for (auto kind : {BaselineKind::kBsl1, BaselineKind::kBsl2,
                      BaselineKind::kBsl3, BaselineKind::kBsl4}) {
      auto baseline = MakeBaseline(kind, context);
      row.push_back(TablePrinter::Num(AvgMicros(*baseline, w2.patterns), 2));
    }
    by_p.AddRow(std::move(row));
  }
  by_p.Print();

  // --- Serving throughput: UsiService::QueryBatch over the W1 workload. ---
  std::vector<unsigned> counts = {1, 2, ThreadPool::HardwareConcurrency()};
  if (args.threads != 0) counts.push_back(args.threads);
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());

  TablePrinter serving("UsiService::QueryBatch throughput on " + spec.name +
                       " (UET, K=" +
                       TablePrinter::Int(static_cast<long long>(k)) +
                       ", W1 batch of " +
                       TablePrinter::Int(static_cast<long long>(
                           w1.patterns.size())) +
                       ")");
  serving.SetHeader({"threads", "queries/s", "speedup"});
  double base_qps = 0;
  for (unsigned threads : counts) {
    const double qps = QueriesPerSecond(uet, threads, w1.patterns);
    if (base_qps == 0) base_qps = qps;
    json.Add(spec.name, "w1_uet_qps_t" + std::to_string(threads), qps, "qps");
    serving.AddRow({TablePrinter::Int(threads), TablePrinter::Num(qps, 0),
                    TablePrinter::Num(qps / base_qps, 2)});
  }
  serving.Print();
}

}  // namespace
}  // namespace usi

int main(int argc, char** argv) {
  const usi::bench::BenchArgs args = usi::bench::ParseBenchArgs(argc, argv);
  usi::bench::PrintBanner("fig6_query_time", "Fig. 6a-j");
  std::printf("hardware concurrency: %u; --threads flag: %u (0 = hw)\n",
              usi::ThreadPool::HardwareConcurrency(), args.threads);
  usi::bench::BenchJson json;
  for (const usi::DatasetSpec& spec : usi::AllDatasetSpecs()) {
    usi::RunDataset(spec, args, json);
  }
  if (!args.json_path.empty()) {
    if (!json.WriteTo(args.json_path, "fig6_query_time")) return 1;
    std::printf("\nwrote machine-readable results to %s\n",
                args.json_path.c_str());
  }
  std::printf("\nShape check (paper): UET/UAT beat every baseline and get "
              "faster as K or p grows; baselines stay flat. QueryBatch "
              "throughput should scale with threads on multi-core hosts.\n");
  return 0;
}
