// Construction hot-path bench (cache-conscious SA-IS, pool-parallel mining,
// memory-lean staged builds). Five sections, all best-of-3:
//
//   rss   — staged UsiBuilder peak-RSS table: per-stage VmHWM deltas (the
//           mine stage's included) and the final peak (runs first: VmHWM is
//           process-monotone, so only the first big allocations attribute
//           cleanly).
//   sa    — suffix-array construction rates: the seed's textbook SA-IS
//           (BuildSuffixArrayReference) vs the rewritten BuildSuffixArray,
//           both single-thread. The acceptance bar is
//           sais_speedup_vs_reference >= 1.5.
//   mine  — the build's exact miner (ExactTopK at K = n/100: chunked Kasai
//           LCP + two sequential LCP-interval passes) beside the full
//           Section V structure (SubstringStats: chunked traversal, every
//           node, radix sorted), sequential and on pools of 2/4/hw threads.
//   table — phase (ii) per text at threads = 1 and K = n/100 (the service
//           default): table-stage seconds, L_K and sum(occ)/n. The SA sweep
//           costs O(n + sum(occ)); a per-length window scan cost n * L_K.
//   stages — the build as perfbench's w2-hot-large set-up runs it: HUM, XML
//           and ADV at 4M/2M/1M symbols (divided by USI_BENCH_SCALE),
//           default options, threads = 1. Per text, the best-of-3 seconds of
//           each build stage and the learned-SA key fit's keys/s (SA ranks
//           packed and fitted per second of the learn stage).
//
// --json PATH writes machine-readable results (BENCH_build.json in CI).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "usi/core/usi_index.hpp"
#include "usi/parallel/thread_pool.hpp"
#include "usi/suffix/suffix_array.hpp"
#include "usi/topk/exact_topk.hpp"
#include "usi/topk/substring_stats.hpp"
#include "usi/util/memory.hpp"

namespace usi {
namespace {

constexpr int kRepeats = 3;

/// Best-of-N wall time (construction benches report the least-disturbed run).
template <typename Fn>
double BestOf(Fn fn) {
  double best = 0;
  for (int r = 0; r < kRepeats; ++r) {
    const double seconds = bench::TimeOnce(fn);
    if (r == 0 || seconds < best) best = seconds;
  }
  return best;
}

double MbPerSec(index_t n, double seconds) {
  return seconds > 0 ? static_cast<double>(n) / seconds / 1e6 : 0;
}

void StagedRssSection(const char* name, bench::BenchJson* json) {
  const DatasetSpec& spec = DatasetSpecByName(name);
  const index_t n = std::min<index_t>(bench::ScaledLength(spec), 400'000);
  const WeightedString ws = MakeDataset(spec, n);
  const u64 k = std::max<u64>(
      10, static_cast<u64>(spec.default_k) * n / spec.default_n);

  UsiOptions options;
  options.k = k;
  options.threads = 1;
  const UsiIndex index(ws, options);
  const UsiBuildInfo& info = index.build_info();

  TablePrinter table(std::string("Memory-lean staged build on ") + name +
                     " (UET, n=" + TablePrinter::Int(n) + ", K=" +
                     TablePrinter::Int(static_cast<long long>(k)) + ")");
  table.SetHeader({"stage", "seconds", "peak-RSS delta"});
  table.AddRow({"sa", TablePrinter::Num(info.sa_seconds, 3),
                FormatBytes(info.sa_rss_delta_bytes)});
  table.AddRow({"mine", TablePrinter::Num(info.mining_seconds, 3),
                FormatBytes(info.mining_rss_delta_bytes)});
  table.AddRow({"table", TablePrinter::Num(info.table_seconds, 3),
                FormatBytes(info.table_rss_delta_bytes)});
  table.AddRow({"learn", TablePrinter::Num(info.learn_seconds, 3),
                FormatBytes(info.learn_rss_delta_bytes)});
  table.AddRow({"total", TablePrinter::Num(info.total_seconds, 3),
                FormatBytes(info.peak_rss_bytes)});
  table.Print();

  const std::string section = std::string("rss.") + name;
  json->Add(section, "sa_rss_delta",
            static_cast<double>(info.sa_rss_delta_bytes), "bytes");
  json->Add(section, "mine_rss_delta",
            static_cast<double>(info.mining_rss_delta_bytes), "bytes");
  json->Add(section, "table_rss_delta",
            static_cast<double>(info.table_rss_delta_bytes), "bytes");
  json->Add(section, "learn_rss_delta",
            static_cast<double>(info.learn_rss_delta_bytes), "bytes");
  json->Add(section, "peak_rss", static_cast<double>(info.peak_rss_bytes),
            "bytes");
}

/// Returns the single-thread speedup so main can aggregate the geomean —
/// the headline acceptance metric (per-dataset numbers stay in the JSON).
double SaRatesSection(const char* name, bench::BenchJson* json) {
  const DatasetSpec& spec = DatasetSpecByName(name);
  const index_t n = bench::ScaledLength(spec);
  const Text text = MakeDataset(spec, n).text();

  const double reference_s = BestOf([&] {
    const std::vector<index_t> sa = BuildSuffixArrayReference(text);
  });
  const double sais_s = BestOf([&] {
    const std::vector<index_t> sa = BuildSuffixArray(text);
  });

  const double speedup = sais_s > 0 ? reference_s / sais_s : 0;
  TablePrinter table(std::string("SA construction (best of 3) on ") + name +
                     " (n=" + TablePrinter::Int(n) + ")");
  table.SetHeader({"variant", "seconds", "MB/s"});
  table.AddRow({"seed SA-IS (reference)", TablePrinter::Num(reference_s, 4),
                TablePrinter::Num(MbPerSec(n, reference_s), 1)});
  table.AddRow({"SA-IS (rewrite, 1t)", TablePrinter::Num(sais_s, 4),
                TablePrinter::Num(MbPerSec(n, sais_s), 1)});
  table.AddRow({"single-thread speedup", TablePrinter::Num(speedup, 2), "x"});
  table.Print();

  const std::string section = std::string("sa.") + name;
  json->Add(section, "reference_mb_s", MbPerSec(n, reference_s), "MB/s");
  json->Add(section, "sais_mb_s", MbPerSec(n, sais_s), "MB/s");
  json->Add(section, "sais_speedup_vs_reference", speedup, "x");
  return speedup;
}

void MiningSection(const char* name, bench::BenchJson* json) {
  const DatasetSpec& spec = DatasetSpecByName(name);
  const index_t n = bench::ScaledLength(spec);
  const Text text = MakeDataset(spec, n).text();
  const std::vector<index_t> sa = BuildSuffixArray(text);
  const u64 k = std::max<u64>(1, n / 100);  // The build's default K.

  // The mine stage as the build runs it, and the full Section V structure
  // (every node, radix sorted) the tuning API builds, at one pool width.
  auto time_pair = [&](ThreadPool* pool, double* miner_s, double* stats_s) {
    *miner_s =
        BestOf([&] { const TopKList mined = ExactTopK(text, sa, k, pool); });
    *stats_s = BestOf([&] {
      std::vector<index_t> sa_copy = sa;
      const SubstringStats stats(text, std::move(sa_copy), pool);
    });
  };
  double seq_miner_s = 0;
  double seq_stats_s = 0;
  time_pair(nullptr, &seq_miner_s, &seq_stats_s);

  std::vector<unsigned> counts = {2, 4};
  const unsigned hw = ThreadPool::HardwareConcurrency();
  if (std::find(counts.begin(), counts.end(), hw) == counts.end() && hw > 1) {
    counts.push_back(hw);
  }
  std::sort(counts.begin(), counts.end());

  TablePrinter table(std::string("Exact mining (best of 3) on ") + name +
                     " (n=" + TablePrinter::Int(n) + ", K=" +
                     TablePrinter::Int(static_cast<long long>(k)) + ")");
  table.SetHeader({"threads", "ExactTopK s", "speedup", "SubstringStats s"});
  table.AddRow({"1 (seq)", TablePrinter::Num(seq_miner_s, 4), "1.00",
                TablePrinter::Num(seq_stats_s, 4)});
  const std::string section = std::string("mine.") + name;
  json->Add(section, "seq_s", seq_miner_s, "s");
  json->Add(section, "stats_seq_s", seq_stats_s, "s");
  for (unsigned threads : counts) {
    ThreadPool pool(threads);
    double miner_s = 0;
    double stats_s = 0;
    time_pair(&pool, &miner_s, &stats_s);
    const double speedup = miner_s > 0 ? seq_miner_s / miner_s : 0;
    table.AddRow({TablePrinter::Int(threads), TablePrinter::Num(miner_s, 4),
                  TablePrinter::Num(speedup, 2),
                  TablePrinter::Num(stats_s, 4)});
    const std::string pool_key = "pool" + TablePrinter::Int(threads);
    json->Add(section, pool_key + "_s", miner_s, "s");
    json->Add(section, pool_key + "_speedup", speedup, "x");
    json->Add(section, "stats_" + pool_key + "_s", stats_s, "s");
  }
  table.Print();
}

void TableSection(const char* name, bench::BenchJson* json) {
  const DatasetSpec& spec = DatasetSpecByName(name);
  const index_t n = bench::ScaledLength(spec);
  const WeightedString ws = MakeDataset(spec, n);
  UsiOptions options;  // k = 0: n/100. threads = 1.
  const u64 k = std::max<u64>(1, n / 100);

  double table_s = 0;
  index_t num_lengths = 0;
  for (int r = 0; r < kRepeats; ++r) {
    const UsiIndex index(ws, options);
    const UsiBuildInfo& info = index.build_info();
    if (r == 0 || info.table_seconds < table_s) table_s = info.table_seconds;
    num_lengths = info.num_lengths;
  }
  double occurrences = 0;
  for (const TopKSubstring& item : ExactTopK(ws.text(), k).items) {
    occurrences += item.frequency;
  }
  const double occ_per_n = occurrences / static_cast<double>(n);

  TablePrinter table(std::string("Table stage (best of 3, 1 thread) on ") +
                     name + " (n=" + TablePrinter::Int(n) + ", K=" +
                     TablePrinter::Int(static_cast<long long>(k)) + ")");
  table.SetHeader({"table seconds", "L_K", "sum(occ)/n"});
  table.AddRow({TablePrinter::Num(table_s, 4), TablePrinter::Int(num_lengths),
                TablePrinter::Num(occ_per_n, 2)});
  table.Print();

  const std::string section = std::string("table.") + name;
  json->Add(section, "table_s", table_s, "s");
  json->Add(section, "num_lengths", num_lengths, "count");
  json->Add(section, "occ_per_n", occ_per_n, "ratio");
}

/// The w2-hot-large texts (perfbench/src/large.cpp) and their sizes.
struct StageText {
  const char* name;
  index_t n;
};
constexpr StageText kStageTexts[] = {
    {"HUM", 4'000'000}, {"XML", 2'000'000}, {"ADV", 1'000'000}};

void StagesSection(bench::BenchJson* json) {
  TablePrinter table(
      "Build stages (best of 3 per stage, 1 thread, default options) at the "
      "w2-hot-large sizes");
  table.SetHeader({"text", "n", "sa s", "mine s", "table s", "learn s",
                   "total s", "fit keys/s"});
  for (const StageText& text : kStageTexts) {
    const index_t n =
        std::max<index_t>(1000, text.n / bench::ScaleDivisor());
    const WeightedString ws = MakeDataset(DatasetSpecByName(text.name), n);
    UsiOptions options;  // k = 0: n/100, the service default.
    options.threads = 1;
    UsiBuildInfo best;
    for (int r = 0; r < kRepeats; ++r) {
      const UsiIndex index(ws, options);
      const UsiBuildInfo& info = index.build_info();
      auto keep_min = [r](double* best_s, double s) {
        if (r == 0 || s < *best_s) *best_s = s;
      };
      keep_min(&best.sa_seconds, info.sa_seconds);
      keep_min(&best.mining_seconds, info.mining_seconds);
      keep_min(&best.table_seconds, info.table_seconds);
      keep_min(&best.learn_seconds, info.learn_seconds);
      keep_min(&best.total_seconds, info.total_seconds);
    }
    const double keys_per_s =
        best.learn_seconds > 0 ? static_cast<double>(n) / best.learn_seconds
                               : 0;
    table.AddRow({text.name, TablePrinter::Int(n),
                  TablePrinter::Num(best.sa_seconds, 4),
                  TablePrinter::Num(best.mining_seconds, 4),
                  TablePrinter::Num(best.table_seconds, 4),
                  TablePrinter::Num(best.learn_seconds, 4),
                  TablePrinter::Num(best.total_seconds, 4),
                  TablePrinter::Num(keys_per_s / 1e6, 1) + "M"});
    const std::string section = std::string("stages.") + text.name;
    json->Add(section, "sa_s", best.sa_seconds, "s");
    json->Add(section, "mine_s", best.mining_seconds, "s");
    json->Add(section, "table_s", best.table_seconds, "s");
    json->Add(section, "learn_s", best.learn_seconds, "s");
    json->Add(section, "total_s", best.total_seconds, "s");
    json->Add(section, "fit_keys_per_s", keys_per_s, "1/s");
  }
  table.Print();
}

}  // namespace
}  // namespace usi

int main(int argc, char** argv) {
  const usi::bench::BenchArgs args = usi::bench::ParseBenchArgs(argc, argv);
  usi::bench::PrintBanner("bench_buildpath", "the Fig. 6 build-time study");
  usi::bench::BenchJson json;

  // RSS first: VmHWM only attributes cleanly before anything else has
  // raised the process peak.
  usi::StagedRssSection("XML", &json);

  double log_speedup_sum = 0;
  int sa_sections = 0;
  for (const char* name : {"XML", "HUM", "ADV"}) {
    const double speedup = usi::SaRatesSection(name, &json);
    if (speedup > 0) {
      log_speedup_sum += std::log(speedup);
      ++sa_sections;
    }
  }
  const double geomean =
      sa_sections > 0 ? std::exp(log_speedup_sum / sa_sections) : 0;
  std::printf("\nSA-IS single-thread geomean speedup vs seed: %.2fx "
              "(acceptance bar: 1.50x)\n",
              geomean);
  json.Add("sa.summary", "geomean_speedup_vs_reference", geomean, "x");
  for (const char* name : {"XML", "HUM"}) {
    usi::MiningSection(name, &json);
  }
  for (const char* name : {"HUM", "XML", "ADV"}) {
    usi::TableSection(name, &json);
  }
  usi::StagesSection(&json);

  if (!args.json_path.empty() &&
      !json.WriteTo(args.json_path, "bench_buildpath")) {
    return 1;
  }
  return 0;
}
