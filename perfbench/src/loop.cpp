#include "loop.hpp"

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>

#include "usi/util/rng.hpp"

namespace perfbench {

void Stream::Seal(const std::vector<TextUnderTest>& texts, Report& report) {
  const std::size_t usable = storage.size() / batch * batch;
  storage.resize(usable);
  text_of.resize(usable);
  queries.clear();
  u64 digest = Fnv1a(nullptr, 0);
  for (std::size_t i = 0; i < usable; ++i) {
    const u32 t = text_of[i];
    const u64 len = storage[i].size();
    queries.push_back({texts[t].id, storage[i]});
    digest = Fnv1a(&t, sizeof(t), digest);
    digest = Fnv1a(&len, sizeof(len), digest);
    digest = Fnv1a(storage[i].data(), len, digest);
  }
  char hex[24];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(digest));
  report.Input("pattern_stream_fnv1a", hex);
  report.Input("stream_queries", static_cast<double>(usable));
}

SetupTimes MeasureSetups(
    int repeats, usi::ThreadPool* pool,
    const usi::UsiMultiServiceOptions& options,
    const std::vector<TextUnderTest>& texts, const Stream& stream,
    const std::function<void()>& before,
    const std::function<bool(usi::UsiMultiService&, std::size_t,
                             usi::WeightedString)>& add,
    Report& report, std::unique_ptr<usi::UsiMultiService>* service) {
  std::vector<usi::MultiQuery> probe;
  for (const TextUnderTest& text : texts) {
    probe.push_back({text.id, stream.storage[0]});
  }
  std::vector<usi::QueryResult> probe_results(probe.size());
  SetupTimes setups;
  // Everything the harness holds is in place: texts, oracles, streams and
  // images. From here the peak grows only with what the service holds
  // (and the client's per-batch latency records).
  bool reset = false;
  const double base_mb = ResetPeakRss(&reset);
  setups.SetRssBase(base_mb, reset);
  for (int r = 0; r < repeats; ++r) {
    service->reset();
    *service = std::make_unique<usi::UsiMultiService>(pool, options);
    // The copies are the client's own memory, made before the clock starts.
    std::vector<usi::WeightedString> copies;
    for (const TextUnderTest& text : texts) copies.push_back(text.ws);
    before();
    const u64 steal = StealTicks();
    const std::int64_t start = NowNs();
    for (std::size_t t = 0; t < texts.size(); ++t) {
      if (!add(**service, t, std::move(copies[t]))) {
        report.Fail(1, "registering " + texts[t].id + " was refused");
      }
    }
    (*service)->WaitForBuilds();
    const usi::ServeStatus status =
        (*service)->QueryBatchInto(probe, probe_results);
    setups.Add(static_cast<double>(NowNs() - start) * 1e-9, steal);
    report.Attempted(1);
    if (status != usi::ServeStatus::kOk) {
      report.Fail(1, std::string("probe batch: ") +
                         usi::ServeStatusName(status));
    }
  }
  return setups;
}

namespace {

/// One client's closed loop, starting at stream batch \p first_batch.
Loop RunClient(usi::UsiMultiService& service, const Stream& stream,
               double seconds, u64 seed, const LoopOptions& options,
               LayerReplay* replay, std::size_t first_batch) {
  Loop loop;
  loop.latency_us.reserve(1 << 22);
  const std::size_t size = stream.batch;
  std::vector<usi::QueryResult> results(size);
  const std::size_t nb = stream.batches();
  WindowedRun run(seconds);
  std::int64_t now = NowNs();
  for (u64 b = 0;
       run.Continue(now, loop.latency_us.size(), loop.queries, loop.hits);
       ++b) {
    const std::size_t at = static_cast<std::size_t>((b + first_batch) % nb);
    const std::size_t first = at * size;
    const std::span<const usi::MultiQuery> batch(&stream.queries[first], size);
    const std::int64_t start = NowNs();
    const usi::ServeStatus status = service.QueryBatchInto(batch, results);
    now = NowNs();
    loop.latency_us.push_back(static_cast<double>(now - start) * 1e-3);
    ++loop.batches;
    loop.queries += size;
    if (status != usi::ServeStatus::kOk) {
      ++loop.failed_batches;
      continue;
    }
    for (const usi::QueryResult& r : results) loop.hits += r.from_hash_table;
    usi::Rng pick(seed ^ (b * 0x9E3779B97F4A7C15ULL));
    if (pick.UniformBelow(options.sample_odds) == 0 &&
        loop.sampled.size() < options.max_sampled) {
      loop.sampled.push_back(static_cast<u32>(at));
      loop.sampled_results.insert(loop.sampled_results.end(), results.begin(),
                                  results.end());
    }
    if (replay != nullptr && b % options.replay_every == 0) {
      replay->Replay(static_cast<u32>(b), start, now, batch,
                     std::span<const u32>(&stream.text_of[first], size),
                     results);
      now = NowNs();
    }
  }
  run.Finish(now, loop.latency_us.size(), loop.queries, loop.hits);
  loop.queries = static_cast<u64>(run.queries());
  loop.hits = static_cast<u64>(run.hits());
  loop.qps = static_cast<double>(loop.queries) / run.seconds();
  loop.window_p99_us = run.WindowPercentiles(loop.latency_us, 99);
  loop.latency_us = run.Select(loop.latency_us);
  loop.windows = run.windows();
  loop.set_aside = run.set_aside();
  return loop;
}

void Append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

}  // namespace

Loop RunLoop(usi::UsiMultiService& service, const Stream& stream,
             double seconds, u64 seed, const LoopOptions& options,
             LayerReplay* replay) {
  const std::size_t clients = std::max<std::size_t>(1, options.clients);
  std::vector<Loop> loops(clients);
  std::vector<std::thread> threads;
  // Client c starts c/clients of the way into the stream, so the clients
  // do not send the same batch at the same moment.
  for (std::size_t c = 1; c < clients; ++c) {
    threads.emplace_back([&, c] {
      PinToCpu(static_cast<unsigned>(c));
      loops[c] = RunClient(service, stream, seconds, seed + c, options,
                           nullptr, c * stream.batches() / clients);
    });
  }
  PinToCpu(0);
  loops[0] = RunClient(service, stream, seconds, seed, options, replay, 0);
  for (std::thread& thread : threads) thread.join();

  Loop loop = std::move(loops[0]);
  for (std::size_t c = 1; c < clients; ++c) {
    const Loop& other = loops[c];
    loop.batches += other.batches;
    loop.queries += other.queries;
    loop.hits += other.hits;
    loop.qps += other.qps;
    loop.failed_batches += other.failed_batches;
    loop.windows += other.windows;
    loop.set_aside += other.set_aside;
    Append(loop.latency_us, other.latency_us);
    Append(loop.window_p99_us, other.window_p99_us);
    loop.sampled.insert(loop.sampled.end(), other.sampled.begin(),
                        other.sampled.end());
    loop.sampled_results.insert(loop.sampled_results.end(),
                                other.sampled_results.begin(),
                                other.sampled_results.end());
  }
  return loop;
}

std::pair<u64, u64> VerifySample(const Loop& loop, const Stream& stream,
                                 std::span<TextUnderTest* const> texts,
                                 u32 first_static) {
  u64 checked = 0;
  u64 mismatches = 0;
  for (std::size_t s = 0; s < loop.sampled.size(); ++s) {
    const std::size_t first =
        static_cast<std::size_t>(loop.sampled[s]) * stream.batch;
    for (std::size_t i = 0; i < stream.batch; ++i) {
      const u32 t = stream.text_of[first + i];
      if (t < first_static) continue;
      const usi::QueryResult want =
          texts[t]->oracle->Query(stream.queries[first + i].pattern);
      const usi::QueryResult& got = loop.sampled_results[s * stream.batch + i];
      ++checked;
      mismatches += want.utility != got.utility ||
                    want.occurrences != got.occurrences;
    }
  }
  return {checked, mismatches};
}

void EmitEndToEnd(Report& report, const Loop& loop, const SetupTimes& setups) {
  report.Metric("query_qps", loop.qps, "1/s");
  report.Metric("batch_p50_us", Percentile(loop.latency_us, 50), "us");
  // A stall of a few hundred milliseconds moves a whole run's p99; the
  // median of the windows' p99s does not move with one bad window.
  report.Metric("batch_p99_us", Median(loop.window_p99_us), "us");
  report.Metric("setup_s", setups.Median(), "s");
  report.Metric("peak_rss_mb", PeakRssMb() - setups.rss_base_mb(), "MiB");
}

void RecordLoop(Report& report, const Loop& loop, const SetupTimes& setups) {
  report.Input("harness_rss_mb", setups.rss_base_mb());
  report.Input("peak_rss_reset", setups.rss_reset() ? "yes" : "no");
  report.Input("batches_timed", static_cast<double>(loop.latency_us.size()));
  report.Input("windows", static_cast<double>(loop.windows));
  report.Input("windows_set_aside_for_steal",
               static_cast<double>(loop.set_aside));
  report.Input("quiet_setups", static_cast<double>(setups.quiet()));
}

}  // namespace perfbench
