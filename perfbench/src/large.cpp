// The two large read-only workloads. Both serve three texts (HUM-, XML- and
// ADV-like, 4:2:1) from one UsiMultiService to two closed-loop clients, in
// round-robin mixed-text batches of 256:
//
//   w2-hot-large      7M symbols built through SubmitText; the paper's
//                     W2,p=90 mix, so ~95% of answers come from the hash
//                     table.
//   zipf-miss-mapped  28M symbols registered from v3 images
//                     (RegisterTextFromFile, page cache dropped first);
//                     Zipf(s=1) over 4096 random substrings plus a 10% cold
//                     tail, so ~90% of answers take the SA + PSW miss path
//                     over mmap-served arrays.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "layers.hpp"
#include "loop.hpp"
#include "usi/core/workload.hpp"
#include "usi/text/dataset.hpp"
#include "usi/topk/substring_stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kBatch = 256;
constexpr std::size_t kQueriesPerText = 32'768;
/// The traced phase replays at most this many batches.
constexpr std::size_t kMaxReplays = 20'000;

struct LargeSpec {
  const char* name;
  index_t n;
  /// W1 tail: random-substring length cap (the paper's per-dataset range).
  index_t random_max_len;
};
// w2-hot-large: the paper-scale probe's shape at a quarter of its size, so
// that building all three texts three times fits one run's time budget.
// SA + PSW + table come to ~90 MB: far past every core's L2, but inside a
// large shared L3.
constexpr LargeSpec kHotSpecs[] = {
    {"HUM", 4'000'000, 5'000},
    {"XML", 2'000'000, 5'000},
    {"ADV", 1'000'000, 200},
};
// zipf-miss-mapped: the probe's own scale. SA + PSW + table come to ~385 MB,
// past a 300 MiB L3. Its set-ups only map images, and the one build (the
// oracle, whose image the service maps) is harness set-up.
constexpr LargeSpec kMappedSpecs[] = {
    {"HUM", 16'000'000, 5'000},
    {"XML", 8'000'000, 5'000},
    {"ADV", 4'000'000, 200},
};

u32 Sigma(const usi::Text& text) {
  return text.empty() ? 0 : *std::max_element(text.begin(), text.end()) + 1u;
}

/// The W2,p=90 mix over \p text: 90% from the top-(n/100) substrings, the
/// rest per W1 from the top-(n/50), both mined exactly.
std::vector<usi::Text> W2Patterns(const TextUnderTest& text,
                                  const LargeSpec& spec, u64 seed,
                                  usi::ThreadPool* pool) {
  const std::span<const index_t> sa = text.oracle->sa();
  const usi::SubstringStats stats(
      text.ws.text(), std::vector<index_t>(sa.begin(), sa.end()), pool);
  const index_t n = text.ws.size();
  const usi::TopKList pool_w1 = stats.TopK(n / 50);
  const usi::TopKList pool_w2 = stats.TopK(n / 100);
  usi::WorkloadOptions w2;
  w2.num_queries = kQueriesPerText;
  w2.random_max_len = spec.random_max_len;
  w2.seed = seed;
  return usi::MakeWorkloadW2(text.ws.text(), pool_w2.items, pool_w1.items, 90,
                             w2)
      .patterns;
}

/// Zipf(s=1) over 4096 random substrings of length 4-64, 10% cold tail.
std::vector<usi::Text> ZipfPatterns(const TextUnderTest& text, u64 seed) {
  usi::ZipfWorkloadOptions zipf;
  zipf.num_queries = kQueriesPerText;
  zipf.pool_size = 4096;
  zipf.s = 1.0;
  zipf.hot_fraction = 0.9;
  zipf.min_len = 4;
  zipf.max_len = 64;
  zipf.seed = seed;
  return usi::MakeWorkloadZipf(text.ws.text(), zipf).patterns;
}

}  // namespace

int RunLarge(const Args& args, bool mapped) {
  Report report;
  RecordMachine(report);
  const std::span<const LargeSpec> specs(mapped ? kMappedSpecs : kHotSpecs);
  // Both serve on their two clients' own threads: with one pool worker
  // (the build lane) UsiService runs every group inline, so no batch waits
  // on a worker's wake-up. On a shared host a woken vCPU can take
  // milliseconds to run; with one client fanning out over two workers,
  // those waits moved w2's qps by 40% and zipf's p99 by 20% between runs.
  LoopOptions loop_options;
  loop_options.clients = 2;
  const unsigned width = PoolWidth(loop_options.clients, 1);
  report.Input("workload", args.workload);
  report.Input("seed", static_cast<double>(args.seed));
  report.Input("batch_size", kBatch);
  report.Input("client_threads", loop_options.clients);
  report.Input("pool_workers", width);
  report.Input("build_lanes", width);
  usi::ThreadPool pool(width);

  std::int64_t phase = NowNs();
  // Texts and oracles: untimed harness set-up.
  std::vector<TextUnderTest> texts(specs.size());
  usi::UsiOptions build_options;  // k = n/100, the service default.
  BuildTimes build;
  for (std::size_t t = 0; t < texts.size(); ++t) {
    texts[t].id = specs[t].name;
    // The corpus is fixed, as the paper's datasets are: the registry's
    // stand-ins at their registry seeds. The workload seed draws the
    // queries; seeding the texts too made the run-to-run spread of the
    // zipf mix twice as wide.
    texts[t].ws =
        usi::MakeDataset(usi::DatasetSpecByName(specs[t].name), specs[t].n);
    BuildOracle(texts[t], build_options, &pool, &build);
    report.Input(texts[t].id + ".n", texts[t].ws.size());
    report.Input(texts[t].id + ".sigma", Sigma(texts[t].ws.text()));
  }
  std::vector<TextUnderTest*> text_ptrs;
  for (TextUnderTest& text : texts) text_ptrs.push_back(&text);
  phase = LogPhase("texts and oracle indexes", phase);

  // Round-robin mixed-text batches: query i goes to text i mod 3.
  std::vector<std::vector<usi::Text>> patterns;
  for (std::size_t t = 0; t < texts.size(); ++t) {
    const u64 seed = args.seed * 0xC2B2AE3D27D4EB4FULL + t;
    patterns.push_back(mapped ? ZipfPatterns(texts[t], seed)
                              : W2Patterns(texts[t], specs[t], seed, &pool));
  }
  Stream stream;
  stream.batch = kBatch;
  for (std::size_t i = 0; i < kQueriesPerText; ++i) {
    for (std::size_t t = 0; t < texts.size(); ++t) {
      stream.storage.push_back(std::move(patterns[t][i]));
      stream.text_of.push_back(static_cast<u32>(t));
    }
  }
  stream.Seal(texts, report);
  phase = LogPhase("query stream", phase);

  std::vector<std::string> images;
  if (mapped) {
    for (const TextUnderTest& text : texts) {
      images.push_back(args.scratch + "/" + text.id + ".v3");
      if (!text.oracle->SaveToFile(images.back(),
                                   usi::IndexFileFormat::kV3Mapped)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     images.back().c_str());
        return 1;
      }
    }
  }

  LayerFacts facts;
  facts.build = build;
  if (mapped && args.trace) {
    double open_us = 0;
    for (std::size_t t = 0; t < texts.size(); ++t) {
      DropPageCache(images[t]);
      const std::int64_t start = NowNs();
      const auto opened = usi::UsiIndex::OpenMapped(texts[t].ws, images[t]);
      open_us += static_cast<double>(NowNs() - start) * 1e-3;
      if (opened == nullptr) report.Fail(1, "OpenMapped refused " + images[t]);
    }
    facts.open_mapped_us = open_us / static_cast<double>(texts.size());
  }

  usi::UsiMultiServiceOptions service_options;
  service_options.build_lanes = width;
  service_options.default_build = build_options;
  std::unique_ptr<usi::UsiMultiService> service;
  // Builds take seconds and repeat steadily; cold mapped opens take
  // milliseconds and jitter with the storage, so they repeat more often.
  const SetupTimes setups = MeasureSetups(
      args.trace ? 1 : (mapped ? 9 : 3), &pool, service_options, texts, stream,
      [&] {
        for (const std::string& image : images) DropPageCache(image);
      },
      [&](usi::UsiMultiService& svc, std::size_t t, usi::WeightedString ws) {
        if (!mapped) {
          svc.SubmitText(texts[t].id, std::move(ws));
          return true;
        }
        return svc.RegisterTextFromFile(texts[t].id, std::move(ws),
                                        images[t]) != 0;
      },
      report, &service);
  phase = LogPhase("measured set-ups", phase);
  RunLoop(*service, stream, 0.5, args.seed, loop_options, nullptr);  // Warm-up.

  Loop loop;
  if (args.trace) {
    const Loop plain = RunLoop(*service, stream, args.seconds / 2, args.seed,
                               loop_options, nullptr);
    LayerReplay replay(&pool, text_ptrs, kMaxReplays, /*service_tier=*/true);
    replay.Prepare();
    loop = RunLoop(*service, stream, args.seconds / 2, args.seed, loop_options,
                   &replay);
    facts.untraced_qps = plain.qps;
    facts.traced_qps = loop.qps;
    facts.hit_ratio = static_cast<double>(plain.hits + loop.hits) /
                      static_cast<double>(plain.queries + loop.queries);
    facts.drop_ratio = TierDropRatio(*service, text_ptrs);
    replay.Emit(report, facts);
    const std::string trace_path =
        args.scratch + "/trace-" + args.workload + ".jsonl";
    if (!replay.WriteTrace(trace_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
    }
    report.Input("trace_file", trace_path);
    report.Attempted(plain.batches);
    report.Fail(plain.failed_batches, "non-kOk batches (untraced phase)");
  } else {
    loop = RunLoop(*service, stream, args.seconds, args.seed, loop_options,
                   nullptr);
    facts.hit_ratio =
        static_cast<double>(loop.hits) / static_cast<double>(loop.queries);
    EmitEndToEnd(report, loop, setups);
  }
  phase = LogPhase("serving", phase);
  RecordLoop(report, loop, setups);
  report.Input("hit_ratio", facts.hit_ratio);
  report.Attempted(loop.batches);
  report.Fail(loop.failed_batches, "non-kOk batches");
  const auto [checked, mismatches] =
      VerifySample(loop, stream, text_ptrs, /*first_static=*/0);
  report.Input("oracle_checked_answers", static_cast<double>(checked));
  report.Fail(mismatches, "answers differ from the oracle index");

  // Workload-contrast self-check: each workload must exercise its layer.
  if (!mapped && facts.hit_ratio < 0.9) {
    report.Reject("w2-hot-large hit ratio below 0.9");
  }
  if (mapped && facts.hit_ratio > 0.2) {
    report.Reject("zipf-miss-mapped hit ratio above 0.2");
  }

  LogPhase("oracle check", phase);
  service.reset();
  for (const std::string& image : images) std::filesystem::remove(image);
  report.Emit();
  return report.ok() ? 0 : 1;
}

}  // namespace perfbench
