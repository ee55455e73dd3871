// Regenerates Fig. 6q-t: construction time of UET, UAT and BSL1-4 versus K
// and versus n (XML- and HUM-like). Shape: baselines build faster (no top-K
// mining or table population), UET builds faster than UAT, and everything
// scales (near-)linearly in n. A UAT build is ApproximateTopK plus
// UsiBuilder::Build over its list. A final section reports the staged
// parallel build pipeline (UsiBuilder): per-stage seconds and peak-RSS
// deltas at 1, 2 and hardware-concurrency threads (only mining's LCP scan
// runs on the pool).
//
// --json PATH writes every measurement as BenchJson (the CI perf-trajectory
// artifact consumes it as BENCH_construction.json).

#include <algorithm>

#include "bench_common.hpp"
#include "usi/core/baselines.hpp"
#include "usi/core/usi_builder.hpp"
#include "usi/core/usi_index.hpp"
#include "usi/parallel/thread_pool.hpp"
#include "usi/suffix/suffix_array.hpp"
#include "usi/topk/approximate_topk.hpp"
#include "usi/util/memory.hpp"

namespace usi {
namespace {

std::vector<std::string> ConstructionRow(const WeightedString& ws, u64 k,
                                         u32 s, std::string label,
                                         bench::BenchJson* json,
                                         const std::string& section) {
  std::vector<std::string> row = {label};
  {
    const double seconds = bench::TimeOnce([&] {
      UsiOptions options;
      options.k = k;
      UsiIndex uet(ws, options);
    });
    row.push_back(TablePrinter::Num(seconds, 3));
    json->Add(section, label + ".uet_s", seconds, "s");
  }
  {
    const double seconds = bench::TimeOnce([&] {
      UsiOptions options;
      options.k = k;
      ApproximateTopKOptions approx;
      approx.rounds = s;
      const std::unique_ptr<UsiIndex> uat = UsiBuilder(ws, options).Build(
          ApproximateTopK(ws.text(), k, approx));
    });
    row.push_back(TablePrinter::Num(seconds, 3));
    json->Add(section, label + ".uat_s", seconds, "s");
  }
  {
    // The baselines share one SA + PSW build; their caches are O(1) to init.
    const double seconds = bench::TimeOnce([&] {
      const std::vector<index_t> sa = BuildSuffixArray(ws.text());
      const PrefixSumWeights psw(ws);
      BaselineContext context;
      context.ws = &ws;
      context.sa = &sa;
      context.psw = &psw;
      context.cache_capacity = k;
      for (auto kind : {BaselineKind::kBsl1, BaselineKind::kBsl2,
                        BaselineKind::kBsl3, BaselineKind::kBsl4}) {
        auto baseline = MakeBaseline(kind, context);
        (void)baseline;
      }
    });
    row.push_back(TablePrinter::Num(seconds, 3));
    json->Add(section, label + ".bsl_s", seconds, "s");
  }
  return row;
}

void ConstructionVsK(const char* name, bench::BenchJson* json) {
  const DatasetSpec& spec = DatasetSpecByName(name);
  const index_t n = std::min<index_t>(bench::ScaledLength(spec), 150'000);
  const WeightedString ws = MakeDataset(spec, n);
  TablePrinter table(std::string("Fig. 6q-r — construction time (s) vs K on ") +
                     name + " (n=" + TablePrinter::Int(n) + ")");
  table.SetHeader({"K", "UET", "UAT", "BSL1-4 (shared)"});
  for (std::size_t ki = 0; ki + 1 < spec.k_sweep.size(); ++ki) {
    const u64 k = std::max<u64>(
        10, static_cast<u64>(spec.k_sweep[ki]) * n / spec.default_n);
    table.AddRow(ConstructionRow(
        ws, k, spec.default_s, std::string("K=") + TablePrinter::Int(static_cast<long long>(k)),
        json, std::string("vs_k.") + name));
  }
  table.Print();
}

void ConstructionVsN(const char* name, bench::BenchJson* json) {
  const DatasetSpec& spec = DatasetSpecByName(name);
  const index_t full_n = std::min<index_t>(bench::ScaledLength(spec), 150'000);
  const WeightedString full = MakeDataset(spec, full_n);
  TablePrinter table(std::string("Fig. 6s-t — construction time (s) vs n on ") +
                     name + " (default K ratio)");
  table.SetHeader({"n", "UET", "UAT", "BSL1-4 (shared)"});
  for (int step = 1; step <= 4; ++step) {
    const index_t n = full_n / 4 * step;
    const WeightedString ws = full.Prefix(n);
    const u64 k = std::max<u64>(
        10, static_cast<u64>(spec.default_k) * n / spec.default_n);
    table.AddRow(ConstructionRow(ws, k, spec.default_s,
                                 std::string("n=") + TablePrinter::Int(n), json,
                                 std::string("vs_n.") + name));
  }
  table.Print();
}

void ParallelBuildStages(const char* name, const bench::BenchArgs& args,
                         bench::BenchJson* json) {
  const DatasetSpec& spec = DatasetSpecByName(name);
  const index_t n = std::min<index_t>(bench::ScaledLength(spec), 150'000);
  const WeightedString ws = MakeDataset(spec, n);
  const u64 k = std::max<u64>(
      10, static_cast<u64>(spec.default_k) * n / spec.default_n);

  std::vector<unsigned> counts = {1, 2, ThreadPool::HardwareConcurrency()};
  if (args.threads != 0) counts.push_back(args.threads);
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());

  TablePrinter table(std::string("UsiBuilder staged build on ") + name +
                     " (UET, n=" + TablePrinter::Int(n) + ", K=" +
                     TablePrinter::Int(static_cast<long long>(k)) + ")");
  table.SetHeader({"threads", "sa (s)", "mine (s)", "table (s)", "total (s)",
                   "peak RSS"});
  for (unsigned threads : counts) {
    UsiOptions options;
    options.k = k;
    options.threads = threads;
    const UsiIndex index(ws, options);
    const UsiBuildInfo& info = index.build_info();
    table.AddRow({TablePrinter::Int(threads),
                  TablePrinter::Num(info.sa_seconds, 3),
                  TablePrinter::Num(info.mining_seconds, 3),
                  TablePrinter::Num(info.table_seconds, 3),
                  TablePrinter::Num(info.total_seconds, 3),
                  FormatBytes(info.peak_rss_bytes)});
    const std::string section = std::string("staged.") + name;
    const std::string prefix = std::string("t") + TablePrinter::Int(threads) + ".";
    json->Add(section, prefix + "sa_s", info.sa_seconds, "s");
    json->Add(section, prefix + "mine_s", info.mining_seconds, "s");
    json->Add(section, prefix + "table_s", info.table_seconds, "s");
    json->Add(section, prefix + "total_s", info.total_seconds, "s");
    json->Add(section, prefix + "peak_rss",
              static_cast<double>(info.peak_rss_bytes), "bytes");
  }
  table.Print();
}

}  // namespace
}  // namespace usi

int main(int argc, char** argv) {
  const usi::bench::BenchArgs args = usi::bench::ParseBenchArgs(argc, argv);
  usi::bench::PrintBanner("fig6_construction", "Fig. 6q-t");
  usi::bench::BenchJson json;
  usi::ConstructionVsK("XML", &json);
  usi::ConstructionVsK("HUM", &json);
  usi::ConstructionVsN("XML", &json);
  usi::ConstructionVsN("HUM", &json);
  usi::ParallelBuildStages("XML", args, &json);
  if (!args.json_path.empty() &&
      !json.WriteTo(args.json_path, "fig6_construction")) {
    return 1;
  }
  return 0;
}
