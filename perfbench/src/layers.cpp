#include "layers.hpp"

#include <cstdio>
#include <iterator>
#include <string>

#include "usi/core/usi_builder.hpp"
#include "usi/suffix/sa_search.hpp"

namespace perfbench {
namespace {

// Layers in replay order; the tree is drawn in layers.hpp.
enum Kind : std::size_t {
  kService,
  kIndex,
  kHit,
  kKarpRabin,
  kMiss,
  kLearned,
  kSaSearch,
  kParallelFor,
  kTier,
  kCrossing,
  kKinds,
};
constexpr const char* kSpanName[kKinds] = {
    "usi_service.QueryBatchInto",   "usi_index.QueryBatch",
    "usi_index.QueryBatch.hit",     "karp_rabin.Hash",
    "usi_index.QueryBatch.miss",    "learned_sa.FindIntervalBatch",
    "sa_search.FindSaInterval",     "thread_pool.ParallelFor",
    "degraded_tier.RecordExact",    "update_tier.QueryCrossingLocked",
};
constexpr const char* kRootName = "multi_service.QueryBatchInto";

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void BuildOracle(TextUnderTest& text, const usi::UsiOptions& options,
                 usi::ThreadPool* pool, BuildTimes* build) {
  usi::UsiBuilder builder(text.ws, options);
  builder.UsePool(pool);
  const std::int64_t start = NowNs();
  text.oracle = builder.Build();
  build->build_s += static_cast<double>(NowNs() - start) * 1e-9;
  for (const usi::UsiBuildStage& stage : builder.stages()) {
    const std::string name = stage.name;
    if (name == "sa") build->sa_s += stage.seconds;
    if (name == "mine") build->mine_s += stage.seconds;
    if (name == "table") build->table_s += stage.seconds;
    if (name == "learn") build->learn_s += stage.seconds;
  }
}

double TierDropRatio(const usi::UsiMultiService& service,
                     std::span<TextUnderTest* const> texts) {
  double drops = 0;
  double records = 0;
  for (const TextUnderTest* text : texts) {
    const auto stats = service.StatsFor(text->id);
    if (!stats || !stats->degraded) continue;
    drops += static_cast<double>(stats->degraded->record_drops);
    records += static_cast<double>(stats->degraded->records);
  }
  return Ratio(drops, drops + records);
}

LayerReplay::LayerReplay(usi::ThreadPool* pool,
                         std::vector<TextUnderTest*> texts,
                         std::size_t max_batches, bool service_tier)
    : pool_(pool),
      texts_(std::move(texts)),
      max_batches_(max_batches),
      service_tier_(service_tier),
      tracer_(max_batches * (1 + texts_.size())),
      group_all_(texts_.size()),
      group_hit_(texts_.size()),
      group_miss_(texts_.size()),
      sums_(kKinds) {
  bool overlays = false;
  for (const TextUnderTest* text : texts_) overlays |= text->overlay != nullptr;
  for (std::size_t kind = 0; kind < kKinds; ++kind) {
    if (kind == kTier && !service_tier) continue;
    if (kind == kCrossing && !overlays) continue;
    rotation_.push_back(kind);
  }
}

void LayerReplay::Prepare() {
  usi::UsiServiceOptions options;
  options.min_shard_size = 16;  // UsiMultiServiceOptions' default.
  for (TextUnderTest* text : texts_) {
    text->replay =
        std::make_unique<usi::UsiService>(*text->oracle, pool_, options);
    text->tier = std::make_unique<usi::DegradedTier>();
  }
}

void LayerReplay::Replay(u32 batch, std::int64_t start_ns,
                         std::int64_t end_ns,
                         std::span<const usi::MultiQuery> queries,
                         std::span<const u32> text_of,
                         std::span<const usi::QueryResult> results) {
  if (batches_ >= static_cast<double>(max_batches_)) return;
  const std::size_t kind =
      rotation_[static_cast<std::size_t>(batches_) % rotation_.size()];
  const int root = tracer_.Add(kRootName, Tracer::kNoParent, batch, start_ns,
                               end_ns);
  batches_ += 1;
  queries_ += static_cast<double>(queries.size());
  root_ns_ += static_cast<double>(end_ns - start_ns);
  if (out_.size() < queries.size()) out_.resize(queries.size());
  if (intervals_.size() < queries.size()) intervals_.resize(queries.size());

  for (std::size_t t = 0; t < texts_.size(); ++t) {
    group_all_[t].clear();
    group_hit_[t].clear();
    group_miss_[t].clear();
  }
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const u32 t = text_of[i];
    group_all_[t].push_back(queries[i].pattern);
    (results[i].from_hash_table ? group_hit_[t] : group_miss_[t])
        .push_back(queries[i].pattern);
  }
  Sums& sums = sums_[kind];
  sums.batches += 1;
  sums.queries += static_cast<double>(queries.size());
  ReplayKind(kind, root, batch, queries, text_of, results, sums);
  if (service_tier_ && kind != kTier) {
    // The service's tier records every answer; the twin is timed on one
    // batch in rotation_.size(). Fed the other replayed batches untimed, it
    // holds the same popular keys and stays about as warm as the real one.
    for (std::size_t i = 0; i < queries.size(); ++i) {
      texts_[text_of[i]]->tier->RecordExact(
          usi::DegradedTier::KeyFor(queries[i].pattern), results[i]);
    }
  }
}

void LayerReplay::ReplayKind(std::size_t kind, int root, u32 batch,
                             std::span<const usi::MultiQuery> queries,
                             std::span<const u32> text_of,
                             std::span<const usi::QueryResult> results,
                             Sums& sums) {
  const char* name = kSpanName[kind];
  if (kind == kTier || kind == kCrossing || kind == kParallelFor) {
    const double ns = Traced(tracer_, name, root, batch, [&] {
      if (kind == kParallelFor) {
        usi::ParallelFor(pool_, pool_->thread_count(),
                         [](std::size_t, unsigned) {});
        return;
      }
      for (std::size_t i = 0; i < queries.size(); ++i) {
        TextUnderTest& text = *texts_[text_of[i]];
        if (kind == kTier) {
          text.tier->RecordExact(usi::DegradedTier::KeyFor(queries[i].pattern),
                                 results[i]);
        } else if (text.overlay != nullptr) {
          auto lock = text.overlay->LockForRead();
          sink_ += text.overlay
                       ->QueryCrossingLocked(queries[i].pattern,
                                             delta_scratch_)
                       .occurrences;
          sums.crossing_queries += 1;
        }
      }
    });
    sums.ns += ns;
    if (kind == kParallelFor) parallel_for_us_.push_back(ns * 1e-3);
    return;
  }
  for (std::size_t t = 0; t < texts_.size(); ++t) {
    const bool hits_only = kind == kHit || kind == kKarpRabin;
    const bool misses_only =
        kind == kMiss || kind == kLearned || kind == kSaSearch;
    const auto& group = hits_only     ? group_hit_[t]
                        : misses_only ? group_miss_[t]
                                      : group_all_[t];
    if (group.empty()) continue;
    TextUnderTest& text = *texts_[t];
    const usi::UsiIndex& index = *text.oracle;
    const std::span<usi::QueryResult> out(out_.data(), group.size());
    const std::span<usi::SaInterval> found(intervals_.data(), group.size());
    sums.hits += static_cast<double>(group_hit_[t].size());
    sums.misses += static_cast<double>(group_miss_[t].size());
    if (hits_only) {
      for (const usi::PatternSpan& p : group) {
        sums.hit_bytes += static_cast<double>(p.size());
      }
    }
    sums.ns += Traced(tracer_, name, root, batch, [&] {
      switch (kind) {
        case kService:
          (void)text.replay->QueryBatchInto(group, out);
          break;
        case kKarpRabin:
          for (const usi::PatternSpan& p : group) sink_ += hasher_.Hash(p);
          break;
        case kLearned:
          index.learned_sa().FindIntervalBatch(text.ws.text(), index.sa(),
                                               group, found);
          break;
        case kSaSearch:
          for (std::size_t i = 0; i < group.size(); ++i) {
            found[i] = usi::FindSaInterval(text.ws.text(), index.sa(), group[i]);
          }
          break;
        default:  // kIndex, kHit, kMiss: the index's batch path.
          index.QueryBatch(group, out, &scratch_);
      }
    });
    if (kind == kLearned) {
      for (const usi::SaInterval& interval : found) {
        sums.miss_occ += static_cast<double>(interval.Count());
      }
    }
  }
}

double LayerReplay::MeanNs(std::size_t kind) const {
  return Ratio(sums_[kind].ns, sums_[kind].batches);
}

void LayerReplay::Emit(Report& report, const LayerFacts& facts) const {
  const double root = Ratio(root_ns_, batches_);
  const double per_batch_queries = Ratio(queries_, batches_);
  const Sums& hit = sums_[kHit];
  const Sums& miss = sums_[kMiss];

  // The multi-service's own time: the root minus every direct child the
  // replays measure (service groups, tier records, crossing probes).
  const double direct_ns =
      MeanNs(kService) + MeanNs(kTier) + MeanNs(kCrossing);
  report.Metric("multi_service.route_ns_per_query",
                Ratio(root - direct_ns, per_batch_queries), "ns");
  report.Metric("usi_service.fanout_ratio",
                Ratio(MeanNs(kService), MeanNs(kIndex)), "ratio");
  report.Metric("thread_pool.parallel_for_us", Median(parallel_for_us_), "us");
  report.Metric("usi_index.hit_ratio", facts.hit_ratio, "ratio");
  report.Metric("usi_index.hit_ns_per_query", Ratio(hit.ns, hit.hits), "ns");
  report.Metric("karp_rabin.ns_per_byte",
                Ratio(sums_[kKarpRabin].ns, sums_[kKarpRabin].hit_bytes),
                "ns/B");
  report.Metric("usi_index.miss_ns_per_query", Ratio(miss.ns, miss.misses),
                "ns");
  report.Metric("learned_sa.find_ns_per_miss",
                Ratio(sums_[kLearned].ns, sums_[kLearned].misses), "ns");
  report.Metric("sa_search.find_ns_per_miss",
                Ratio(sums_[kSaSearch].ns, sums_[kSaSearch].misses), "ns");
  report.Metric("usi_index.occ_per_miss",
                Ratio(sums_[kLearned].miss_occ, sums_[kLearned].misses),
                "count");
  report.Metric("degraded_tier.record_ns_per_query",
                Ratio(sums_[kTier].ns, sums_[kTier].queries), "ns");
  report.Metric("degraded_tier.drop_ratio", facts.drop_ratio, "ratio");
  report.Metric("update_tier.append_ns_per_symbol", facts.append_ns_per_symbol,
                "ns");
  report.Metric("update_tier.crossing_ns_per_query",
                Ratio(sums_[kCrossing].ns, sums_[kCrossing].crossing_queries),
                "ns");
  report.Metric("multi_service.compactions", facts.compactions, "count");
  report.Metric("multi_service.compact_publish_us", facts.compact_publish_us,
                "us");
  report.Metric("usi_builder.build_s", facts.build.build_s, "s");
  report.Metric("usi_builder.sa_s", facts.build.sa_s, "s");
  report.Metric("usi_builder.mine_s", facts.build.mine_s, "s");
  report.Metric("usi_builder.table_s", facts.build.table_s, "s");
  report.Metric("usi_builder.learn_s", facts.build.learn_s, "s");
  report.Metric("usi_index.open_mapped_us", facts.open_mapped_us, "us");
  report.Metric("append.gen_lag_us", facts.append_gen_lag_us, "us");
  report.Metric("append.p50_us", facts.append_p50_us, "us");
  report.Metric("append.p99_us", facts.append_p99_us, "us");

  // Self time per layer, in microseconds per batch.
  const double self_ns[] = {
      root - direct_ns,
      MeanNs(kService) - MeanNs(kIndex),
      MeanNs(kHit) - MeanNs(kKarpRabin),
      MeanNs(kKarpRabin),
      MeanNs(kMiss) - MeanNs(kLearned),
      MeanNs(kLearned),
      MeanNs(kTier),
      MeanNs(kCrossing),
  };
  const char* self_names[] = {
      "self_us.multi_service", "self_us.usi_service",
      "self_us.usi_index_hit", "self_us.karp_rabin",
      "self_us.usi_index_miss", "self_us.learned_sa",
      "self_us.degraded_tier", "self_us.update_tier",
  };
  for (std::size_t i = 0; i < std::size(self_ns); ++i) {
    report.Metric(self_names[i], self_ns[i] * 1e-3, "us");
  }
  // The share of the real call that the directly replayed layers account
  // for; the rest is the multi-service's own time.
  report.Metric("trace.coverage", Ratio(direct_ns, root), "ratio");
  report.Metric("trace.overhead", Ratio(facts.traced_qps, facts.untraced_qps),
                "ratio");
  report.Metric("trace.replayed_batches", batches_, "count");
  if (sink_ == 42) std::fprintf(stderr, "\n");  // Keeps the replays live.
}

}  // namespace perfbench
