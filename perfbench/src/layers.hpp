#ifndef USI_PERFBENCH_LAYERS_HPP_
#define USI_PERFBENCH_LAYERS_HPP_

/// \file layers.hpp
/// Per-layer split of a served batch, for the traced run.
///
/// The benchmark may not trace inside the library, so it splits a request by
/// replaying it: after a sampled UsiMultiService::QueryBatchInto call (the
/// root span, timed for real), the same queries are sent again through ONE
/// layer's public entry point, on harness-owned objects that mirror what the
/// service holds (an index built from the same text with the same options,
/// a UsiService over it on the same pool, a DegradedTier, a DeltaOverlay).
/// Successive sampled batches rotate through the layers. Replaying a single
/// layer per batch keeps each replayed call in the cache state the real
/// call met: nothing else touched that batch's data in the harness copy
/// since the batch last came round, whereas a second replay of the same
/// batch would find it warm. The layers nest like this:
///
///     multi_service.QueryBatchInto            root, the real call     D
///       usi_service.QueryBatchInto            per text group, pool    S
///         usi_index.QueryBatch                same groups, 1 thread   I
///           usi_index.QueryBatch.hit          the table hits          H
///             karp_rabin.Hash                 fingerprinting them     K
///           usi_index.QueryBatch.miss         the table misses        M
///             learned_sa.FindIntervalBatch    miss resolution         F
///       degraded_tier.RecordExact             every answer            R
///       update_tier.QueryCrossingLocked       texts with appends      Q
///
/// A layer's self time is its mean duration per batch minus its children's
/// mean durations: D-S-R-Q for the multi-service (routing, pinning,
/// admission, scatter), S-I for fan-out (negative when fan-out saves wall
/// time), H-K, K, M-F, F, R and Q. usi_index.QueryBatch only groups H and M.
/// trace.coverage is (S+R+Q)/D, the share of the real call that the direct
/// child replays account for. Side measurements (plain FindSaInterval
/// on the misses, an empty ParallelFor) take turns like the layers but stay
/// out of the sums.

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "harness.hpp"
#include "usi/core/degraded_tier.hpp"
#include "usi/core/multi_service.hpp"
#include "usi/core/update_tier.hpp"
#include "usi/core/usi_index.hpp"
#include "usi/core/usi_service.hpp"
#include "usi/hash/karp_rabin.hpp"
#include "usi/parallel/thread_pool.hpp"

namespace perfbench {

/// One text as the harness sees it: the content it submitted, the oracle
/// index it built itself, and the layer objects the replay drives.
struct TextUnderTest {
  std::string id;
  usi::WeightedString ws;
  std::unique_ptr<usi::UsiIndex> oracle;
  /// Harness UsiService over the oracle (traced run only).
  std::unique_ptr<usi::UsiService> replay;
  /// Harness tier fed like the service's own (traced run only).
  std::unique_ptr<usi::DegradedTier> tier;
  /// Harness overlay holding a typical delta (traced churn run only).
  std::unique_ptr<usi::DeltaOverlay> overlay;
};

/// Builds the oracle of \p text with UsiBuilder on \p pool, adding the
/// build and stage times to \p build.
struct BuildTimes {
  double build_s = 0;
  double sa_s = 0;
  double mine_s = 0;
  double table_s = 0;
  double learn_s = 0;
};
void BuildOracle(TextUnderTest& text, const usi::UsiOptions& options,
                 usi::ThreadPool* pool, BuildTimes* build);

/// Layer numbers a workload measures outside the replay; zero where the
/// workload does not exercise the layer.
struct LayerFacts {
  double untraced_qps = 0;
  double traced_qps = 0;
  double hit_ratio = 0;   ///< Table answers / all answers, whole run.
  double drop_ratio = 0;  ///< Tier record drops / record attempts.
  double compactions = 0;
  double compact_publish_us = 0;
  double open_mapped_us = 0;
  double append_ns_per_symbol = 0;
  double append_gen_lag_us = 0;
  double append_p50_us = 0;
  double append_p99_us = 0;
  BuildTimes build;
};

/// Sums tier drops and records over \p texts from the service's StatsFor.
double TierDropRatio(const usi::UsiMultiService& service,
                     std::span<TextUnderTest* const> texts);

/// Replays sampled batches through the layers and accumulates the split.
class LayerReplay {
 public:
  /// \p texts are indexed by the text_of arrays passed to Replay.
  /// \p service_tier says whether the service records answers into a
  /// DegradedTier; without it the tier is no layer of the request.
  LayerReplay(usi::ThreadPool* pool, std::vector<TextUnderTest*> texts,
              std::size_t max_batches, bool service_tier);

  /// Wires the harness service and tier of every text (needs oracles).
  void Prepare();

  /// Replays the next layer in turn on one batch whose real call ran over
  /// [start_ns, end_ns) and answered \p results.
  void Replay(u32 batch, std::int64_t start_ns, std::int64_t end_ns,
              std::span<const usi::MultiQuery> queries,
              std::span<const u32> text_of,
              std::span<const usi::QueryResult> results);

  /// Per-layer metrics of the replayed batches, the workload's own layer
  /// facts, and the trace accounting.
  void Emit(Report& report, const LayerFacts& facts) const;

  /// Writes the spans as JSON lines; false on I/O failure.
  bool WriteTrace(const std::string& path) const {
    return tracer_.WriteJsonl(path);
  }

 private:
  /// What one replay of kind k measured, summed over its batches.
  struct Sums {
    double batches = 0;
    double ns = 0;
    double queries = 0;
    double hits = 0;
    double hit_bytes = 0;
    double misses = 0;
    double miss_occ = 0;
    double crossing_queries = 0;
  };

  /// Replays layer \p kind on the batch staged in the group vectors.
  void ReplayKind(std::size_t kind, int root, u32 batch,
                  std::span<const usi::MultiQuery> queries,
                  std::span<const u32> text_of,
                  std::span<const usi::QueryResult> results, Sums& sums);

  /// Mean replayed duration per batch of \p kind (0 if never replayed).
  double MeanNs(std::size_t kind) const;

  usi::ThreadPool* pool_;
  std::vector<TextUnderTest*> texts_;
  std::size_t max_batches_;
  bool service_tier_;
  /// The layers replayed in turn: the crossing replay only with overlays,
  /// the tier replay only when the service records into a tier.
  std::vector<std::size_t> rotation_;
  Tracer tracer_;
  usi::KarpRabinHasher hasher_;
  usi::QueryScratch scratch_;
  usi::DeltaOverlay::Scratch delta_scratch_;

  // Per-group staging, reused across batches.
  std::vector<std::vector<usi::PatternSpan>> group_all_;
  std::vector<std::vector<usi::PatternSpan>> group_hit_;
  std::vector<std::vector<usi::PatternSpan>> group_miss_;
  std::vector<usi::QueryResult> out_;
  std::vector<usi::SaInterval> intervals_;

  double batches_ = 0;
  double queries_ = 0;
  double root_ns_ = 0;
  std::vector<Sums> sums_;
  std::vector<double> parallel_for_us_;
  u64 sink_ = 0;
};

}  // namespace perfbench

#endif  // USI_PERFBENCH_LAYERS_HPP_
