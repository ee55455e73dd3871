#ifndef USI_PERFBENCH_LOOP_HPP_
#define USI_PERFBENCH_LOOP_HPP_

/// \file loop.hpp
/// The client side every workload shares: a seeded query stream, the
/// measured set-ups, the closed-loop client and the oracle check of its
/// sampled answers.

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "harness.hpp"
#include "layers.hpp"

namespace perfbench {

/// A mixed-text query stream cut into equal batches: query i asks text
/// text_of[i] for storage[i].
struct Stream {
  std::size_t batch = 0;
  std::vector<usi::Text> storage;
  std::vector<u32> text_of;
  std::vector<usi::MultiQuery> queries;

  std::size_t batches() const { return queries.size() / batch; }

  /// Trims the stream to whole batches, points queries at storage, and
  /// records its size and FNV-1a hash in \p report.
  void Seal(const std::vector<TextUnderTest>& texts, Report& report);
};

/// Repeats a measured set-up \p repeats times: a fresh service on \p pool,
/// \p add registers text t (false on refusal), then WaitForBuilds and a
/// probe batch with one query per text must answer kOk. \p before runs
/// untimed ahead of each set-up. The last service stays in \p service.
SetupTimes MeasureSetups(
    int repeats, usi::ThreadPool* pool,
    const usi::UsiMultiServiceOptions& options,
    const std::vector<TextUnderTest>& texts, const Stream& stream,
    const std::function<void()>& before,
    const std::function<bool(usi::UsiMultiService&, std::size_t,
                             usi::WeightedString)>& add,
    Report& report, std::unique_ptr<usi::UsiMultiService>* service);

/// What the closed-loop clients measured, summed over clients.
struct Loop {
  double qps = 0;      ///< Each client's queries / its selected window time.
  u64 batches = 0;     ///< Every batch sent.
  u64 queries = 0;     ///< Queries in the selected windows.
  u64 hits = 0;        ///< Table answers in the selected windows.
  u64 failed_batches = 0;
  std::size_t windows = 0;    ///< Half-second windows measured.
  std::size_t set_aside = 0;  ///< Of those, dropped for hypervisor steal.
  std::vector<double> latency_us;  ///< Per batch, selected windows only.
  std::vector<double> window_p99_us;  ///< Each selected window's p99.
  std::vector<u32> sampled;        ///< Stream batches kept for the oracle.
  std::vector<usi::QueryResult> sampled_results;
};

/// Client and sampling knobs of RunLoop.
struct LoopOptions {
  /// Closed-loop client threads. Client 0 runs on the calling thread and
  /// is the only one that replays.
  std::size_t clients = 1;
  /// A batch's answers enter the oracle sample with probability 1/odds.
  u64 sample_odds = 32;
  std::size_t max_sampled = 48;
  /// With a replay, every replay_every-th batch is replayed.
  u32 replay_every = 2;
};

/// options.clients closed-loop clients, each sending the stream's batches
/// in order, round and round, for \p seconds of WindowedRun time.
Loop RunLoop(usi::UsiMultiService& service, const Stream& stream,
             double seconds, u64 seed, const LoopOptions& options,
             LayerReplay* replay);

/// Checks the loop's sampled answers against each text's oracle, exactly,
/// skipping texts below \p first_static (their content moves during the
/// run). Returns {answers checked, answers that differ}.
std::pair<u64, u64> VerifySample(const Loop& loop, const Stream& stream,
                                 std::span<TextUnderTest* const> texts,
                                 u32 first_static);

/// Prints the end-to-end metrics of an untraced run.
void EmitEndToEnd(Report& report, const Loop& loop, const SetupTimes& setups);

/// Records the loop's and set-ups' bookkeeping in the input record.
void RecordLoop(Report& report, const Loop& loop, const SetupTimes& setups);

}  // namespace perfbench

#endif  // USI_PERFBENCH_LOOP_HPP_
