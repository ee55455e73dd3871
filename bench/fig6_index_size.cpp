// Regenerates Fig. 6k-p: index size of UET, UAT and BSL1-4 versus K (XML,
// HUM, ADV) and versus n. The paper's shape: all six indexes nearly
// coincide — the suffix array + PSW dominate; BSL1 is slightly smaller (no
// hash table) and BSL4 slightly smaller than BSL3 (sketch vs exact counts).

#include <memory>

#include "bench_common.hpp"
#include "usi/core/baselines.hpp"
#include "usi/core/usi_builder.hpp"
#include "usi/core/usi_index.hpp"
#include "usi/suffix/suffix_array.hpp"
#include "usi/topk/approximate_topk.hpp"
#include "usi/util/memory.hpp"

namespace usi {
namespace {

std::vector<std::string> SizesRow(const WeightedString& ws,
                                  const std::vector<index_t>& sa,
                                  const PrefixSumWeights& psw, u64 k, u32 s,
                                  std::string label) {
  UsiOptions options;
  options.k = k;
  const UsiIndex uet(ws, options);
  ApproximateTopKOptions approx;
  approx.rounds = s;
  const std::unique_ptr<UsiIndex> uat =
      UsiBuilder(ws, options).Build(ApproximateTopK(ws.text(), k, approx));
  BaselineContext context;
  context.ws = &ws;
  context.sa = &sa;
  context.psw = &psw;
  context.cache_capacity = k;

  std::vector<std::string> row = {std::move(label),
                                  FormatBytes(uet.SizeInBytes()),
                                  FormatBytes(uat->SizeInBytes())};
  for (auto kind : {BaselineKind::kBsl1, BaselineKind::kBsl2,
                    BaselineKind::kBsl3, BaselineKind::kBsl4}) {
    auto baseline = MakeBaseline(kind, context);
    // Caching baselines grow as queries arrive; warm them with K dummy keys
    // worth of growth upper bound is their capacity, which SizeInBytes
    // already reserves. Report as-built size, as mallinfo2 would.
    row.push_back(FormatBytes(baseline->SizeInBytes()));
  }
  return row;
}

void SizeVsK(const char* name) {
  const DatasetSpec& spec = DatasetSpecByName(name);
  const index_t n = std::min<index_t>(bench::ScaledLength(spec), 150'000);
  const WeightedString ws = MakeDataset(spec, n);
  const std::vector<index_t> sa = BuildSuffixArray(ws.text());
  const PrefixSumWeights psw(ws);

  TablePrinter table(std::string("Fig. 6k-m — index size vs K on ") + name +
                     " (n=" + TablePrinter::Int(n) + ")");
  table.SetHeader({"K", "UET", "UAT", "BSL1", "BSL2", "BSL3", "BSL4"});
  for (std::size_t ki = 0; ki + 1 < spec.k_sweep.size(); ++ki) {
    const u64 k = std::max<u64>(
        10, static_cast<u64>(spec.k_sweep[ki]) * n / spec.default_n);
    table.AddRow(SizesRow(ws, sa, psw, k, spec.default_s,
                          TablePrinter::Int(static_cast<long long>(k))));
  }
  table.Print();
}

void SizeVsN(const char* name) {
  const DatasetSpec& spec = DatasetSpecByName(name);
  const index_t full_n = std::min<index_t>(bench::ScaledLength(spec), 150'000);
  const WeightedString full = MakeDataset(spec, full_n);

  TablePrinter table(std::string("Fig. 6n-p — index size vs n on ") + name +
                     " (default K ratio)");
  table.SetHeader({"n", "UET", "UAT", "BSL1", "BSL2", "BSL3", "BSL4"});
  for (int step = 1; step <= 4; ++step) {
    const index_t n = full_n / 4 * step;
    const WeightedString ws = full.Prefix(n);
    const std::vector<index_t> sa = BuildSuffixArray(ws.text());
    const PrefixSumWeights psw(ws);
    const u64 k = std::max<u64>(
        10, static_cast<u64>(spec.default_k) * n / spec.default_n);
    table.AddRow(
        SizesRow(ws, sa, psw, k, spec.default_s, TablePrinter::Int(n)));
  }
  table.Print();
}

}  // namespace
}  // namespace usi

int main() {
  usi::bench::PrintBanner("fig6_index_size", "Fig. 6k-p");
  usi::SizeVsK("XML");
  usi::SizeVsK("HUM");
  usi::SizeVsK("ADV");
  usi::SizeVsN("XML");
  usi::SizeVsN("HUM");
  usi::SizeVsN("ADV");
  return 0;
}
