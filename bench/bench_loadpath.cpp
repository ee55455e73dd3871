// Load-path bench: the two ways of opening one v3 index image, per dataset.
// Two tables:
//
//   size — persisted file size (v3 carries the table's ctrl/slot arrays
//          verbatim plus the PSW, so it trades bytes for the O(1) open).
//   open — startup latency: the heap read (LoadFromFile: one sequential
//          read into an owned buffer + every section checksummed + SA range
//          check) against the mapped open (OpenMapped: header validation +
//          pointer fixup), warm (file in page cache) and cold (page cache
//          dropped via posix_fadvise DONTNEED). A cold mapped open faults in
//          only the header pages; the rest demand-pages as queries touch it,
//          so the bench also reports cold open + a query burst to price
//          that in.
//
// Acceptance bar: mapped open >= 10x faster than the heap read on the
// largest bench text. --json PATH writes machine-readable results
// (BENCH_loadpath.json in CI).

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "usi/core/usi_index.hpp"

namespace usi {
namespace {

constexpr int kRepeats = 5;

/// Best-of-N wall time; opens are microsecond-scale, so the least-disturbed
/// run is the honest figure.
template <typename Fn>
double BestOf(Fn fn) {
  double best = 0;
  for (int r = 0; r < kRepeats; ++r) {
    const double seconds = bench::TimeOnce(fn);
    if (r == 0 || seconds < best) best = seconds;
  }
  return best;
}

/// Drops \p path from the page cache (best-effort) so the next read faults
/// in from storage — the "cold process on a warm machine" startup scenario.
void DropCaches(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);  // Dirty pages cannot be dropped; this file is clean anyway.
  (void)::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
  ::close(fd);
}

double FileMb(const std::string& path) {
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<double>(bytes) / 1e6;
}

struct LoadpathRow {
  std::string name;
  double file_mb = 0;
  double heap_warm_s = 0;
  double heap_cold_s = 0;
  double mapped_warm_s = 0;
  double mapped_cold_s = 0;
  double mapped_cold_burst_s = 0;  ///< Cold open + the query burst.
  /// Heap read / mapped open, both warm — the instant-start scenario
  /// (process restart on a warm machine: the file is in the page cache
  /// either way, so this isolates the O(file) read and verification the
  /// mapped open skips; storage latency would add the same constant to
  /// both cold paths).
  double speedup = 0;
};

LoadpathRow RunDataset(const char* name, bench::BenchJson* json) {
  const DatasetSpec& spec = DatasetSpecByName(name);
  const index_t n = bench::ScaledLength(spec);
  const WeightedString ws = MakeDataset(spec, n);
  const u64 k = std::max<u64>(
      10, static_cast<u64>(spec.default_k) * n / spec.default_n);

  UsiOptions options;
  options.k = k;
  options.threads = 0;  // Build as fast as the host allows; not measured.
  const UsiIndex index(ws, options);

  const std::string stem =
      std::string(P_tmpdir) + "/usi_bench_loadpath_" + name;
  const std::string path = stem + "_v3.bin";
  LoadpathRow row;
  row.name = name;
  if (!index.SaveToFile(path)) {
    std::fprintf(stderr, "bench_loadpath: saving %s failed\n", name);
    return row;
  }
  row.file_mb = FileMb(path);

  // A burst of table-hitting and fallback queries, for the demand-paging
  // figure: strided fragments touch SA/PSW/table pages all over the file.
  std::vector<Text> burst;
  for (index_t i = 0; i + 8 <= ws.size() && burst.size() < 1000; i += 997) {
    burst.push_back(ws.Fragment(i, 8));
  }
  const auto run_burst = [&](const UsiIndex& idx) {
    double sink = 0;
    for (const Text& pattern : burst) sink += idx.Utility(pattern);
    return sink;
  };

  // The cache drop runs before each repeat, outside the timed region —
  // charging the drop itself to the open would overstate the cold cost.
  const auto cold_best_of = [](const std::string& path, auto fn) {
    double best = 0;
    for (int r = 0; r < kRepeats; ++r) {
      DropCaches(path);
      const double seconds = bench::TimeOnce(fn);
      if (r == 0 || seconds < best) best = seconds;
    }
    return best;
  };

  const auto heap_read = [&] {
    const auto loaded = UsiIndex::LoadFromFile(ws, path);
    USI_CHECK(loaded != nullptr);
  };
  const auto mapped_open = [&] {
    const auto mapped = UsiIndex::OpenMapped(ws, path);
    USI_CHECK(mapped != nullptr);
  };
  row.heap_warm_s = BestOf(heap_read);
  row.mapped_warm_s = BestOf(mapped_open);
  row.heap_cold_s = cold_best_of(path, heap_read);
  row.mapped_cold_s = cold_best_of(path, mapped_open);
  row.mapped_cold_burst_s = cold_best_of(path, [&] {
    const auto mapped = UsiIndex::OpenMapped(ws, path);
    USI_CHECK(mapped != nullptr);
    run_burst(*mapped);
  });
  row.speedup =
      row.mapped_warm_s > 0 ? row.heap_warm_s / row.mapped_warm_s : 0;

  const std::string section = std::string("loadpath.") + name;
  json->Add(section, "v3_file", row.file_mb * 1e6, "bytes");
  json->Add(section, "v3_heap_read_warm", row.heap_warm_s * 1e6, "us");
  json->Add(section, "v3_heap_read_cold", row.heap_cold_s * 1e6, "us");
  json->Add(section, "v3_open_warm", row.mapped_warm_s * 1e6, "us");
  json->Add(section, "v3_open_cold", row.mapped_cold_s * 1e6, "us");
  json->Add(section, "v3_open_cold_plus_1k_queries",
            row.mapped_cold_burst_s * 1e6, "us");
  json->Add(section, "open_speedup_mapped_vs_heap", row.speedup, "x");

  std::remove(path.c_str());
  return row;
}

}  // namespace
}  // namespace usi

int main(int argc, char** argv) {
  const usi::bench::BenchArgs args = usi::bench::ParseBenchArgs(argc, argv);
  (void)args.threads;
  usi::bench::PrintBanner("bench_loadpath",
                          "index persistence: v3 heap read vs mmap open");
  usi::bench::BenchJson json;

  std::vector<usi::LoadpathRow> rows;
  // Ordered smallest to largest; the last row is the acceptance row.
  for (const char* name : {"XML", "ADV", "HUM"}) {
    rows.push_back(usi::RunDataset(name, &json));
  }

  usi::TablePrinter size_table("Persisted index size");
  size_table.SetHeader({"dataset", "v3 (MB)"});
  for (const auto& row : rows) {
    size_table.AddRow({row.name, usi::TablePrinter::Num(row.file_mb, 2)});
  }
  size_table.Print();

  usi::TablePrinter open_table(
      "Startup latency (best of 5; cold = page cache dropped)");
  open_table.SetHeader({"dataset", "heap warm (us)", "heap cold (us)",
                        "mapped warm (us)", "mapped cold (us)",
                        "mapped cold+1k queries (us)", "speedup"});
  for (const auto& row : rows) {
    open_table.AddRow(
        {row.name, usi::TablePrinter::Num(row.heap_warm_s * 1e6, 0),
         usi::TablePrinter::Num(row.heap_cold_s * 1e6, 0),
         usi::TablePrinter::Num(row.mapped_warm_s * 1e6, 0),
         usi::TablePrinter::Num(row.mapped_cold_s * 1e6, 0),
         usi::TablePrinter::Num(row.mapped_cold_burst_s * 1e6, 0),
         usi::TablePrinter::Num(row.speedup, 1) + "x"});
  }
  open_table.Print();

  const usi::LoadpathRow& largest = rows.back();
  std::printf("\nmapped open vs heap read on %s: %.1fx (acceptance bar: "
              "10.0x; speedup = heap warm read / mapped warm open)\n",
              largest.name.c_str(), largest.speedup);
  json.Add("loadpath.summary", "largest_text_speedup", largest.speedup, "x");

  if (!args.json_path.empty() &&
      !json.WriteTo(args.json_path, "bench_loadpath")) {
    return 1;
  }
  return 0;
}
