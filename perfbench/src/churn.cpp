// churn-small: writes beside reads on small texts. Eight texts of 100k
// symbols (~1.3 MB of index each, L3-resident together) behind one
// UsiMultiService whose one pool worker is the build lane. One closed-loop
// client sends batches of 16 queries over random texts; per-text groups of
// about two queries are served inline, so per-batch routing, admission,
// pinning and scatter dominate. One open-loop appender sends 8-symbol spans
// to two of the texts at a fixed rate; with delta_compact_threshold 4096
// that is ~4 compactions per second folding the update tier into new
// generations.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "layers.hpp"
#include "loop.hpp"
#include "usi/text/generators.hpp"
#include "usi/util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kTexts = 8;
constexpr index_t kTextLen = 100'000;
constexpr std::size_t kAppendedTexts = 2;
constexpr std::size_t kBatch = 16;
constexpr std::size_t kStreamBatches = 8'192;
constexpr std::size_t kSpan = 8;
/// 16384 symbols/s over 2 texts, ~4 compactions/s. At 5120 appends/s
/// (~10 compactions/s) the one build lane fell behind as the appended texts
/// grew, and between runs qps varied by 17% and p99 by nearly 2x.
constexpr double kAppendsPerSecond = 2'048;
constexpr index_t kCompactThreshold = 4'096;
/// The appender checks its text against the oracle every this many appends.
constexpr u64 kCheckpointEvery = 2'048;
constexpr std::size_t kCheckpointQueries = 16;
constexpr std::size_t kMaxReplays = 60'000;
constexpr double kMinCompactions = 5;
/// The appender spins only this close to an append's due time.
constexpr std::int64_t kSpinNs = 80'000;

usi::WeightedString MakeText(std::size_t t, index_t n, u64 seed) {
  usi::WeightedString raw = t % 3 == 0   ? usi::MakeDnaLike(n, seed)
                            : t % 3 == 1 ? usi::MakeXmlLike(n, seed)
                                         : usi::MakeAdvLike(n, seed);
  return usi::WeightedString(raw.text(), QuantizedWeights(raw.weights()));
}

usi::Text RandomFragment(const usi::Text& text, usi::Rng& rng, index_t min_len,
                         index_t max_len) {
  const index_t len = static_cast<index_t>(rng.UniformInRange(min_len, max_len));
  const index_t start = static_cast<index_t>(
      rng.UniformBelow(static_cast<index_t>(text.size()) - len + 1));
  return usi::Text(text.begin() + start, text.begin() + start + len);
}

/// What the appender saw at one quiescent point of its own text: the
/// content length then, the patterns it asked and the answers it got.
struct Checkpoint {
  std::size_t text = 0;
  index_t content_len = 0;
  std::vector<usi::Text> patterns;
  std::vector<usi::QueryResult> results;
  usi::ServeStatus status = usi::ServeStatus::kOk;
};

/// Patterns for a checkpoint of text \p t whose first \p sent symbols of
/// \p stream have been appended: suffixes of the content (they end in the
/// newest append), fragments spanning the original boundary, fragments of
/// the appended part, and fragments of the submitted text.
std::vector<usi::Text> CheckpointPatterns(const usi::Text& base,
                                          const usi::Text& stream,
                                          index_t sent, usi::Rng& rng) {
  std::vector<usi::Text> patterns;
  for (std::size_t q = 0; q < kCheckpointQueries; ++q) {
    const index_t len = static_cast<index_t>(rng.UniformInRange(3, 10));
    const auto appended = stream.begin();
    if (q % 4 == 3 || sent < len) {
      patterns.push_back(RandomFragment(base, rng, 3, 10));
    } else if (q % 4 == 0) {
      patterns.emplace_back(appended + (sent - len), appended + sent);
    } else if (q % 4 == 1) {
      usi::Text p(base.end() - len / 2, base.end());
      p.insert(p.end(), appended, appended + (len - len / 2));
      patterns.push_back(std::move(p));
    } else {
      const index_t start = static_cast<index_t>(rng.UniformBelow(sent - len + 1));
      patterns.emplace_back(appended + start, appended + start + len);
    }
  }
  return patterns;
}

Checkpoint TakeCheckpoint(usi::UsiMultiService& service,
                          const std::vector<TextUnderTest>& texts,
                          std::size_t t, const usi::WeightedString& stream,
                          index_t sent, usi::Rng& rng) {
  Checkpoint cp;
  cp.text = t;
  cp.content_len = texts[t].ws.size() + sent;
  cp.patterns = CheckpointPatterns(texts[t].ws.text(), stream.text(), sent, rng);
  std::vector<usi::MultiQuery> queries;
  for (const usi::Text& p : cp.patterns) queries.push_back({texts[t].id, p});
  cp.results.resize(queries.size());
  cp.status = service.QueryBatchInto(queries, cp.results);
  return cp;
}

/// The open-loop appender: append i is due at start + i / rate, is timed
/// from its due time, and its lateness is recorded as generator lag.
struct Appender {
  std::vector<usi::WeightedString> streams;  ///< Per appended text.
  std::vector<index_t> sent;                 ///< Symbols sent per text.
  std::vector<double> latency_us;
  std::vector<double> lag_us;
  std::vector<Checkpoint> checkpoints;
  u64 failed = 0;
  u64 attempted = 0;
};

void RunAppender(usi::UsiMultiService& service,
                 const std::vector<TextUnderTest>& texts, Appender& app,
                 std::atomic<bool>& stop, u64 seed) {
  usi::Rng rng(seed);
  const std::int64_t begin = NowNs();
  for (u64 i = 0; !stop.load(std::memory_order_relaxed); ++i) {
    const std::size_t t = i % kAppendedTexts;
    const usi::WeightedString& stream = app.streams[t];
    if (app.sent[t] + kSpan > stream.size()) break;
    const std::int64_t due =
        begin + static_cast<std::int64_t>(static_cast<double>(i) * 1e9 /
                                          kAppendsPerSecond);
    std::int64_t now = NowNs();
    while (now < due && !stop.load(std::memory_order_relaxed)) {
      // Sleep through most of the gap, spin the last stretch: a sleeping
      // generator leaves its core to the reader and the build lane.
      if (due - now > kSpinNs) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - kSpinNs));
      } else {
        std::this_thread::yield();
      }
      now = NowNs();
    }
    const index_t at = app.sent[t];
    const std::span<const usi::Symbol> text(stream.text().data() + at, kSpan);
    const std::span<const double> weights(stream.weights().data() + at, kSpan);
    const usi::ServeStatus status = service.AppendText(texts[t].id, text,
                                                       weights);
    const std::int64_t end = NowNs();
    ++app.attempted;
    app.lag_us.push_back(static_cast<double>(std::max<std::int64_t>(
                             0, now - due)) * 1e-3);
    app.latency_us.push_back(static_cast<double>(end - due) * 1e-3);
    if (status != usi::ServeStatus::kOk) {
      ++app.failed;
      continue;
    }
    app.sent[t] += kSpan;

    if ((i + 1) % kCheckpointEvery == 0) {
      // Only this thread appends, so the content is known exactly here.
      app.checkpoints.push_back(
          TakeCheckpoint(service, texts, t, app.streams[t], app.sent[t], rng));
    }
  }
}

/// Rebuilds each checkpoint's content and compares its answers exactly.
u64 VerifyCheckpoints(const std::vector<TextUnderTest>& texts,
                      const Appender& app, usi::ThreadPool* pool) {
  u64 mismatches = 0;
  for (const Checkpoint& cp : app.checkpoints) {
    if (cp.status != usi::ServeStatus::kOk) {
      mismatches += cp.patterns.size();
      continue;
    }
    const usi::WeightedString& base = texts[cp.text].ws;
    const usi::WeightedString& stream = app.streams[cp.text];
    const index_t extra = cp.content_len - base.size();
    usi::Text text = base.text();
    std::vector<double> weights = base.weights();
    text.insert(text.end(), stream.text().begin(),
                stream.text().begin() + extra);
    weights.insert(weights.end(), stream.weights().begin(),
                   stream.weights().begin() + extra);
    TextUnderTest rebuilt;
    rebuilt.ws = usi::WeightedString(std::move(text), std::move(weights));
    BuildTimes unused;
    BuildOracle(rebuilt, usi::UsiOptions{}, pool, &unused);
    for (std::size_t q = 0; q < cp.patterns.size(); ++q) {
      const usi::QueryResult want = rebuilt.oracle->Query(cp.patterns[q]);
      if (want.utility != cp.results[q].utility ||
          want.occurrences != cp.results[q].occurrences) {
        ++mismatches;
      }
    }
  }
  return mismatches;
}

/// The client's query stream: kStreamBatches batches of kBatch queries,
/// each over a random text. A quarter of the patterns on appended texts
/// come from the text's append stream, so they cross the boundary once
/// appended.
Stream MakeStream(const std::vector<TextUnderTest>& texts,
                  const Appender& app, u64 seed, Report& report) {
  usi::Rng rng(seed);
  Stream stream;
  stream.batch = kBatch;
  for (std::size_t i = 0; i < kStreamBatches * kBatch; ++i) {
    const u32 t = static_cast<u32>(rng.UniformBelow(kTexts));
    const bool from_appends = t < kAppendedTexts && rng.UniformBelow(4) == 0;
    const usi::Text& source =
        from_appends ? app.streams[t].text() : texts[t].ws.text();
    stream.storage.push_back(RandomFragment(source, rng, 3, 12));
    stream.text_of.push_back(t);
  }
  stream.Seal(texts, report);
  return stream;
}

}  // namespace

int RunChurn(const Args& args) {
  Report report;
  RecordMachine(report);
  const unsigned width = PoolWidth(2, 2);
  report.Input("workload", args.workload);
  report.Input("seed", static_cast<double>(args.seed));
  report.Input("batch_size", kBatch);
  report.Input("client_threads", 1);
  report.Input("appender_threads", 1);
  report.Input("pool_workers", width);
  report.Input("build_lanes", 1);
  report.Input("appends_per_s", kAppendsPerSecond);
  report.Input("append_span", kSpan);
  report.Input("delta_compact_threshold", kCompactThreshold);
  usi::ThreadPool pool(width);

  std::vector<TextUnderTest> texts(kTexts);
  BuildTimes build;
  for (std::size_t t = 0; t < kTexts; ++t) {
    texts[t].id = std::string(1, 'T') + std::to_string(t);
    // A fixed corpus; the workload seed draws the queries and the appends.
    texts[t].ws = MakeText(t, kTextLen, 0xC4A2 + t);
    BuildOracle(texts[t], usi::UsiOptions{}, &pool, &build);
    report.Input(texts[t].id + ".n", texts[t].ws.size());
    report.Input(texts[t].id + ".sigma",
                 *std::max_element(texts[t].ws.text().begin(),
                                   texts[t].ws.text().end()) + 1.0);
  }
  std::vector<TextUnderTest*> text_ptrs;
  for (TextUnderTest& text : texts) text_ptrs.push_back(&text);

  // Append streams, long enough for the whole run at the fixed rate.
  Appender app;
  const double run_s = args.seconds + 1.0;
  const index_t per_text = static_cast<index_t>(
      run_s * kAppendsPerSecond / kAppendedTexts * kSpan * 1.1);
  for (std::size_t t = 0; t < kAppendedTexts; ++t) {
    app.streams.push_back(
        MakeText(t, per_text, args.seed * 0xC2B2AE3D27D4EB4FULL + t));
  }
  const Stream stream = MakeStream(texts, app, args.seed ^ 0x5EED, report);

  usi::UsiMultiServiceOptions service_options;
  service_options.build_lanes = 1;
  service_options.delta_compact_threshold = kCompactThreshold;
  // The degraded tier stays on, as it is by default. AppendText clears a
  // text's tier on every call, under the lock the reader's per-answer
  // RecordExact also takes, and that cost shows in append.p50_us and in
  // the read figures.
  std::unique_ptr<usi::UsiMultiService> service;
  const SetupTimes setups = MeasureSetups(
      args.trace ? 1 : 9, &pool, service_options, texts, stream, [] {},
      [&](usi::UsiMultiService& svc, std::size_t t, usi::WeightedString ws) {
        svc.SubmitText(texts[t].id, std::move(ws));
        return true;
      },
      report, &service);

  LoopOptions loop_options;
  loop_options.sample_odds = 64;
  loop_options.max_sampled = 256;
  loop_options.replay_every = 4;
  RunLoop(*service, stream, 0.3, args.seed, loop_options, nullptr);  // Warm-up.

  app.sent.assign(kAppendedTexts, 0);
  const u64 compactions_before = service->stats().compactions;
  std::atomic<bool> stop{false};
  std::thread appender([&] {
    PinToCpu(static_cast<unsigned>(loop_options.clients));
    RunAppender(*service, texts, app, stop, args.seed ^ 0xA99E);
  });

  LayerFacts facts;
  facts.build = build;
  Loop loop;
  std::unique_ptr<LayerReplay> replay;
  if (args.trace) {
    const Loop plain = RunLoop(*service, stream, args.seconds / 2, args.seed,
                               loop_options, nullptr);
    // Harness overlays hold half a compaction's worth of appends, the mean
    // fill of the service's live overlays.
    for (std::size_t t = 0; t < kAppendedTexts; ++t) {
      auto base = std::make_shared<const usi::WeightedString>(texts[t].ws);
      texts[t].overlay = std::make_unique<usi::DeltaOverlay>(
          base, service_options.delta_context, 0,
          texts[t].oracle->utility_kind());
      const index_t fill = kCompactThreshold / 2;
      texts[t].overlay->Append(
          std::span<const usi::Symbol>(app.streams[t].text().data(), fill),
          std::span<const double>(app.streams[t].weights().data(), fill));
    }
    replay = std::make_unique<LayerReplay>(&pool, text_ptrs, kMaxReplays,
                                           /*service_tier=*/true);
    replay->Prepare();
    loop = RunLoop(*service, stream, args.seconds / 2, args.seed, loop_options,
                   replay.get());
    facts.untraced_qps = plain.qps;
    facts.traced_qps = loop.qps;
    facts.hit_ratio = static_cast<double>(plain.hits + loop.hits) /
                      static_cast<double>(plain.queries + loop.queries);
    report.Attempted(plain.batches);
    report.Fail(plain.failed_batches, "non-kOk batches (untraced phase)");
  } else {
    loop = RunLoop(*service, stream, args.seconds, args.seed, loop_options,
                   nullptr);
    facts.hit_ratio =
        static_cast<double>(loop.hits) / static_cast<double>(loop.queries);
  }
  stop.store(true);
  appender.join();
  const double compactions =
      static_cast<double>(service->stats().compactions - compactions_before);

  // Final quiescent checkpoint on every appended text.
  usi::Rng final_rng(args.seed ^ 0xF1AA);
  for (std::size_t t = 0; t < kAppendedTexts; ++t) {
    app.checkpoints.push_back(TakeCheckpoint(*service, texts, t, app.streams[t],
                                             app.sent[t], final_rng));
  }

  facts.compactions = compactions;
  double publish_us = 0;
  for (std::size_t t = 0; t < kAppendedTexts; ++t) {
    publish_us += static_cast<double>(
                      service->StatsFor(texts[t].id)->compact_publish_ns) *
                  1e-3;
  }
  facts.compact_publish_us = publish_us / kAppendedTexts;
  facts.append_gen_lag_us = Median(app.lag_us);
  facts.append_p50_us = Percentile(app.latency_us, 50);
  facts.append_p99_us = Percentile(app.latency_us, 99);

  if (args.trace) {
    // The update tier alone: replay the appends that were sent into
    // harness overlays, a fresh one per compaction threshold of symbols.
    double append_ns = 0;
    double symbols = 0;
    for (std::size_t t = 0; t < kAppendedTexts; ++t) {
      auto base = std::make_shared<const usi::WeightedString>(texts[t].ws);
      std::unique_ptr<usi::DeltaOverlay> overlay;
      for (index_t at = 0; at + kSpan <= app.sent[t]; at += kSpan) {
        if (at % kCompactThreshold == 0) {
          overlay = std::make_unique<usi::DeltaOverlay>(
              base, service_options.delta_context, 0,
              texts[t].oracle->utility_kind());
        }
        const std::int64_t start = NowNs();
        overlay->Append(
            std::span<const usi::Symbol>(app.streams[t].text().data() + at,
                                         kSpan),
            std::span<const double>(app.streams[t].weights().data() + at,
                                    kSpan));
        append_ns += static_cast<double>(NowNs() - start);
        symbols += kSpan;
      }
    }
    facts.append_ns_per_symbol = symbols > 0 ? append_ns / symbols : 0;
    facts.drop_ratio = TierDropRatio(*service, text_ptrs);
    replay->Emit(report, facts);
    const std::string trace_path =
        args.scratch + "/trace-" + args.workload + ".jsonl";
    if (!replay->WriteTrace(trace_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
    }
    report.Input("trace_file", trace_path);
  } else {
    EmitEndToEnd(report, loop, setups);
  }
  RecordLoop(report, loop, setups);
  report.Input("hit_ratio", facts.hit_ratio);
  report.Input("appends", static_cast<double>(app.attempted));
  report.Input("append_p50_us", facts.append_p50_us);
  report.Input("append_p99_us", facts.append_p99_us);
  report.Input("append_gen_lag_us", facts.append_gen_lag_us);
  report.Input("compactions", compactions);
  report.Input("checkpoints", static_cast<double>(app.checkpoints.size()));
  // Texts nobody appends to keep their submitted content, so their answers
  // must equal the oracle's at any time.
  const auto [checked, mismatches] =
      VerifySample(loop, stream, text_ptrs, kAppendedTexts);
  report.Input("oracle_checked_answers", static_cast<double>(checked));

  report.Attempted(loop.batches + app.attempted);
  report.Fail(loop.failed_batches, "non-kOk batches");
  report.Fail(app.failed, "non-kOk appends");
  report.Fail(mismatches, "answers differ from the oracle index");
  report.Fail(VerifyCheckpoints(texts, app, &pool),
              "checkpoint answers differ from a rebuild of the content");
  if (compactions < kMinCompactions) {
    report.Reject("churn-small completed fewer than 5 compactions");
  }
  service.reset();
  report.Emit();
  return report.ok() ? 0 : 1;
}

}  // namespace perfbench
