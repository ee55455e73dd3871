#include "usi/core/multi_service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

#include "usi/core/usi_builder.hpp"
#include "usi/parallel/thread_pool.hpp"
#include "usi/util/failpoint.hpp"
#include "usi/util/mapped_file.hpp"
#include "usi/util/timer.hpp"

namespace usi {

const char* BuildStateName(BuildState state) {
  switch (state) {
    case BuildState::kUnknown: return "unknown";
    case BuildState::kPending: return "pending";
    case BuildState::kBuilding: return "building";
    case BuildState::kReady: return "ready";
    case BuildState::kFailed: return "failed";
  }
  return "?";
}

namespace {

/// A text's serving-cost telemetry calibrates once it has served this many
/// pattern bytes; below the threshold the configured prior is used.
constexpr u64 kCostCalibrationBytes = 1024;

/// Writes one degraded result slot: \p tier's answer for \p pattern, or
/// kNone filler when there is no tier or no rung answers. Returns whether a
/// rung answered.
bool AnswerFromTier(DegradedTier* tier, PatternSpan pattern,
                    QueryResult& slot) {
  slot = QueryResult{};
  if (tier != nullptr &&
      tier->TryAnswer(DegradedTier::KeyFor(pattern), &slot)) {
    return true;
  }
  slot.provenance = AnswerProvenance::kNone;
  return false;
}

}  // namespace

/// One immutable index generation. The weighted string lives here because
/// UsiIndex borrows it; the shared_ptr holding the Generation keeps both
/// alive for as long as any batch still serves from it.
struct UsiMultiService::Generation {
  u64 number = 0;
  WeightedString ws;
  std::unique_ptr<UsiIndex> index;    ///< Borrows ws.
  std::unique_ptr<UsiService> service;  ///< Borrows index + the shared pool.
  /// Serving straight out of an mmap'd file (RegisterTextFromFile). A
  /// mapped generation that faults mid-serve (SIGBUS on a truncated or
  /// revoked backing file) is demoted and recovered; heap generations
  /// cannot lose their backing, so a serve failure there is reported but
  /// never demotes.
  bool mapped = false;
};

/// Registry slot for one named text. `current` is the generation pointer
/// readers pin (a shared_ptr copy under a pointer-copy-scale lock; see
/// PinGeneration); everything else behind `mu` is build bookkeeping writers
/// touch briefly. Waiters on `cv` release `mu` while blocked, so pinning
/// never queues behind a WaitForText.
struct UsiMultiService::TextEntry {
  std::string id;

  std::mutex mu;  ///< Guards current, build_options, scheduled, completed,
                  ///< published, building, last_failed, last_error,
                  ///< failed_builds, retries, source_path, removed, delta,
                  ///< delta_epoch, compaction_scheduled, appends,
                  ///< compactions, compact_publish_ns.
  std::condition_variable cv;  ///< Signals per-text build completions.
  std::shared_ptr<const Generation> current;  ///< Null until first publish.
  /// Update-tier overlay paired with `current`: absorbs appends past the
  /// published base; null until the first append (and again right after a
  /// compaction that left nothing pending). Swapped together with
  /// `current` under `mu`, so a pin sees a consistent (base, delta) pair;
  /// the overlay itself is internally synchronized for its readers.
  std::shared_ptr<DeltaOverlay> delta;
  /// Overlay lineage counter: bumps whenever `delta` is dropped or
  /// replaced. A compaction records the epoch its snapshot saw and only
  /// publishes while the live overlay still carries it — a delta recreated
  /// for different content can never be trimmed by a stale compaction.
  u64 delta_epoch = 0;
  /// A compaction build for this text is queued or running; appends do not
  /// schedule another until it reaches a terminal state.
  bool compaction_scheduled = false;
  u64 appends = 0;              ///< AppendText calls absorbed.
  u64 compactions = 0;          ///< Compaction publishes.
  u64 compact_publish_ns = 0;   ///< Entry-lock hold of the latest publish.
  UsiOptions build_options;
  /// A build lane holds this text (guarded by the service's build_mu_, NOT
  /// by `mu`): per-text serialization across the multi-lane executor.
  bool lane_claimed = false;
  u64 scheduled = 0;  ///< Generation numbers handed out so far.
  u64 completed = 0;  ///< Builds finished (published, superseded or failed).
  u64 published = 0;  ///< Highest generation number stored in `current`.
  bool building = false;     ///< The build lane is on (or retrying) a job.
  bool last_failed = false;  ///< The newest terminal build outcome failed.
  std::string last_error;    ///< Cause of the most recent build failure.
  u64 failed_builds = 0;     ///< Terminal failures (quarantines).
  u64 retries = 0;           ///< Failed attempts that were re-armed.
  /// Backing file of mapped generations (RegisterTextFromFile); recovery
  /// after a mapped fault re-loads from here when the file is still good.
  std::string source_path;
  /// UnregisterText ran: the entry is out of the registry; a build still
  /// holding it must not publish (the generation would be unreachable
  /// anyway — this just skips the wasted service construction).
  bool removed = false;

  /// Graceful-degradation tier: learns exact answers, serves the degraded
  /// paths. Shared across generations — a quarantined text with no
  /// servable generation is exactly when it is needed. Null when disabled
  /// service-wide. The tier itself is internally synchronized.
  std::unique_ptr<DegradedTier> tier;

  std::atomic<u64> batches{0};
  std::atomic<u64> queries{0};
  std::atomic<u64> hash_hits{0};
  /// Cost-model telemetry: cumulative pattern bytes served to completion
  /// and the wall time they took. Their ratio is this text's calibrated
  /// ns-per-byte estimate once past kCostCalibrationBytes.
  std::atomic<u64> served_bytes{0};
  std::atomic<u64> served_ns{0};

  /// The reader-side pin: a shared_ptr copy taken under `mu`. The lock is
  /// held for a refcount increment — not for the batch — so a rebuild
  /// publishing concurrently never blocks readers for longer than a
  /// pointer copy. (std::atomic<std::shared_ptr> would make this genuinely
  /// lock-free, but libstdc++'s implementation guards the pointer with a
  /// lock bit ThreadSanitizer cannot model, and the TSan CI job is part of
  /// this contract.)
  std::shared_ptr<const Generation> PinGeneration() {
    std::lock_guard<std::mutex> lock(mu);
    return current;
  }

  /// As PinGeneration, additionally pinning the update-tier overlay in the
  /// SAME critical section: the pair describes one boundary, so a batch
  /// can never merge a new delta into an old base (or vice versa).
  void PinServing(std::shared_ptr<const Generation>* gen_out,
                  std::shared_ptr<DeltaOverlay>* delta_out) {
    std::lock_guard<std::mutex> lock(mu);
    *gen_out = current;
    *delta_out = delta;
  }

  /// Build-lane state; caller holds `mu`.
  BuildState StateLocked() const {
    if (completed >= scheduled) {
      return last_failed ? BuildState::kFailed : BuildState::kReady;
    }
    return building ? BuildState::kBuilding : BuildState::kPending;
  }
};

/// One queued rebuild (or recovery) job.
struct UsiMultiService::BuildJob {
  EntryPtr entry;
  WeightedString ws;
  u64 generation = 0;
  unsigned attempt = 0;  ///< Failed attempts so far.
  /// Earliest start time; retry jobs carry their backoff here. The default
  /// (epoch) is always ready.
  std::chrono::steady_clock::time_point not_before{};
  /// Non-empty marks a recovery job: try a heap load of this index file
  /// before paying for a full rebuild.
  std::string recover_path;
  /// Compaction job: ws is the overlay's merged snapshot; at publish the
  /// successor overlay warm-starts from the old one.
  bool compaction = false;
  index_t compact_boundary = 0;  ///< Snapshot length ns (new base covers it).
  u64 compact_epoch = 0;         ///< Overlay lineage the snapshot saw.
};

/// Leased per-batch routing buffers: the per-text groups (with their pinned
/// generations) plus gather/scatter staging. Reused across batches, so a
/// steady-state batch shape stops allocating once capacities are warm.
struct UsiMultiService::BatchScratch {
  struct Group {
    EntryPtr entry;
    std::shared_ptr<const Generation> gen;
    /// The update-tier overlay pinned WITH gen (one entry-lock critical
    /// section), so the group's base and delta describe the same boundary.
    std::shared_ptr<DeltaOverlay> delta;
    /// The text tier's epoch, read just BEFORE the pin: answers recorded
    /// with it are dropped if a content change cleared the tier since.
    u64 tier_epoch = 0;
    std::vector<u32> indices;  ///< Positions in the incoming batch.
  };
  std::vector<Group> groups;  ///< groups[0..used) active this batch.
  /// Gathered patterns of one group: spans pointing into the callers'
  /// request storage (MultiQuery::pattern bytes, alive for the whole
  /// QueryBatchInto call) — the gather stage scatters pointers, it never
  /// copies pattern bytes.
  std::vector<PatternSpan> patterns;
  std::vector<QueryResult> results;  ///< Group-local results to scatter.
  DeltaOverlay::Scratch delta_scratch;  ///< Crossing-probe reuse buffers.
};

UsiMultiService::UsiMultiService(const UsiMultiServiceOptions& options)
    : options_(options) {
  const unsigned threads = options.threads == 0
                               ? ThreadPool::HardwareConcurrency()
                               : options.threads;
  // Unlike UsiService, a 1-wide pool is still useful here: it is the build
  // lane (queries are then served inline on caller threads).
  owned_pool_ = std::make_unique<ThreadPool>(std::max(1u, threads));
  pool_ = owned_pool_.get();
}

UsiMultiService::UsiMultiService(ThreadPool* pool,
                                 const UsiMultiServiceOptions& options)
    : pool_(pool), options_(options) {}

UsiMultiService::~UsiMultiService() {
  // Wait until the build lane has drained and retired: after that no pool
  // task can touch this object's members. (An owned pool additionally joins
  // its workers when destroyed below.)
  std::unique_lock<std::mutex> lock(build_mu_);
  build_cv_.wait(lock, [this] {
    return build_queue_.empty() && build_lanes_active_ == 0;
  });
}

unsigned UsiMultiService::threads() const {
  return pool_ == nullptr ? 1 : std::max(1u, pool_->thread_count());
}

UsiMultiService::EntryPtr UsiMultiService::FindEntry(
    std::string_view id) const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  auto it = registry_.find(id);
  return it == registry_.end() ? nullptr : it->second;
}

UsiMultiService::EntryPtr UsiMultiService::EnsureEntry(std::string_view id) {
  std::lock_guard<std::mutex> lock(registry_mu_);
  auto it = registry_.find(id);
  if (it != registry_.end()) return it->second;
  EntryPtr entry = std::make_shared<TextEntry>();
  entry->id = std::string(id);
  if (options_.enable_degraded_tier) {
    entry->tier = std::make_unique<DegradedTier>(options_.degraded);
  }
  registry_.emplace(entry->id, entry);
  return entry;
}

u64 UsiMultiService::SubmitText(std::string_view id, WeightedString ws,
                                const UsiOptions& build_options) {
  EntryPtr entry = EnsureEntry(id);
  u64 generation;
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    entry->build_options = build_options;
    generation = ++entry->scheduled;
    // Full-content replacement supersedes the update tier: pending appends
    // describe the outgoing text.
    if (entry->delta != nullptr) {
      entry->delta = nullptr;
      ++entry->delta_epoch;
    }
  }
  // New content: recorded answers (and their bounds) describe the old text.
  if (entry->tier != nullptr) entry->tier->Clear();
  ScheduleBuild(std::move(entry), std::move(ws), generation);
  return generation;
}

u64 UsiMultiService::SubmitText(std::string_view id, WeightedString ws) {
  return SubmitText(id, std::move(ws), options_.default_build);
}

u64 UsiMultiService::RegisterTextFromFile(std::string_view id,
                                          WeightedString ws,
                                          const std::string& path) {
  // Registration is the natural startup sweep point: a writer that crashed
  // mid-publish left only `path.tmp.*` siblings, which never affect the
  // published file but do leak disk until someone removes them.
  RemoveStaleTemps(path);

  // The generation owns the weighted string (the index borrows it), so the
  // text moves in before the open. Open BEFORE touching the registry: a
  // bad file must not register an id or burn a generation number.
  auto gen = std::make_shared<Generation>();
  gen->ws = std::move(ws);
  std::unique_ptr<UsiIndex> index = UsiIndex::OpenMapped(gen->ws, path);
  if (index == nullptr) return 0;
  gen->index = std::move(index);
  gen->mapped = true;
  UsiServiceOptions service_options;
  service_options.min_shard_size = options_.min_shard_size;
  gen->service =
      std::make_unique<UsiService>(*gen->index, pool_, service_options);

  EntryPtr entry = EnsureEntry(id);
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    gen->number = ++entry->scheduled;
    entry->source_path = path;
    // Full-content replacement supersedes the update tier.
    if (entry->delta != nullptr) {
      entry->delta = nullptr;
      ++entry->delta_epoch;
    }
  }
  // Upsert may swap in different content; the tier must not replay answers
  // recorded against the previous text.
  if (entry->tier != nullptr) entry->tier->Clear();
  // Account the instant publish as a scheduled-and-completed build so
  // WaitForText/WaitForBuilds targets stay consistent with SubmitText's.
  {
    std::lock_guard<std::mutex> lock(build_mu_);
    ++builds_scheduled_;
  }
  const u64 generation = gen->number;
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    ++entry->completed;
    // Same monotonic publish as BuildOne: an in-flight rebuild that claims
    // a higher number afterwards supersedes this mapped generation, never
    // the other way round.
    if (gen->number > entry->published) {
      entry->published = gen->number;
      entry->current = std::move(gen);
      entry->last_failed = false;
    }
  }
  // As in BuildOne: retire what readers of the previous generation recorded
  // between the clear above and this publish.
  if (entry->tier != nullptr) entry->tier->Clear();
  entry->cv.notify_all();
  {
    std::lock_guard<std::mutex> lock(build_mu_);
    ++builds_completed_;
  }
  build_cv_.notify_all();
  return generation;
}

u64 UsiMultiService::UpdateText(std::string_view id, WeightedString ws) {
  return UpdateText(id, std::move(ws), nullptr);
}

u64 UsiMultiService::UpdateText(std::string_view id, WeightedString ws,
                                const UsiOptions& build_options) {
  return UpdateText(id, std::move(ws), &build_options);
}

u64 UsiMultiService::UpdateText(std::string_view id, WeightedString ws,
                                const UsiOptions* build_options) {
  EntryPtr entry = FindEntry(id);
  if (entry == nullptr) return 0;
  u64 generation;
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    if (build_options != nullptr) entry->build_options = *build_options;
    generation = ++entry->scheduled;
    // Full-content replacement supersedes the update tier.
    if (entry->delta != nullptr) {
      entry->delta = nullptr;
      ++entry->delta_epoch;
    }
  }
  // New content: recorded answers (and their bounds) describe the old text.
  if (entry->tier != nullptr) entry->tier->Clear();
  ScheduleBuild(std::move(entry), std::move(ws), generation);
  return generation;
}

bool UsiMultiService::SetBuildOptions(std::string_view id,
                                      const UsiOptions& build_options) {
  EntryPtr entry = FindEntry(id);
  if (entry == nullptr) return false;
  std::lock_guard<std::mutex> lock(entry->mu);
  entry->build_options = build_options;
  return true;
}

ServeStatus UsiMultiService::AppendText(std::string_view id,
                                        std::span<const Symbol> text,
                                        std::span<const double> weights) {
  return AppendTextImpl(id, text, weights, nullptr);
}

ServeStatus UsiMultiService::AppendText(std::string_view id,
                                        std::span<const Symbol> text,
                                        std::span<const double> weights,
                                        const UsiOptions& build_options) {
  return AppendTextImpl(id, text, weights, &build_options);
}

ServeStatus UsiMultiService::AppendTextImpl(std::string_view id,
                                            std::span<const Symbol> text,
                                            std::span<const double> weights,
                                            const UsiOptions* build_options) {
  // A non-finite weight would poison every later PSW sum; like a length
  // mismatch it is rejected before anything changes.
  if (text.size() != weights.size() ||
      !std::all_of(weights.begin(), weights.end(),
                   [](double w) { return std::isfinite(w); })) {
    return ServeStatus::kInvalidArgument;
  }
  EntryPtr entry = FindEntry(id);
  if (entry == nullptr) return ServeStatus::kUnknownText;

  bool schedule_compaction = false;
  WeightedString compact_ws;
  u64 compact_generation = 0;
  index_t compact_boundary = 0;
  u64 compact_epoch = 0;
  {
    // The entry lock is held for the whole append (overlay creation, the
    // append itself, the compaction decision): it serializes appenders and
    // — because the compaction publish also swaps under this lock — an
    // append can never land in an overlay that is being replaced mid-span.
    // Readers are unaffected: they pin (pointer copy) and probe the overlay
    // under ITS lock, never this one.
    std::lock_guard<std::mutex> lock(entry->mu);
    if (build_options != nullptr) entry->build_options = *build_options;
    if (entry->current == nullptr) {
      // Appends extend a published base; before the first publish there is
      // no boundary to append past (and no index to merge with).
      return ServeStatus::kNotReady;
    }
    if (entry->delta == nullptr) {
      // First append against this generation: the overlay borrows the
      // generation's text through an aliasing shared_ptr, so the base stays
      // alive as long as the overlay does.
      std::shared_ptr<const WeightedString> base(entry->current,
                                                 &entry->current->ws);
      entry->delta = std::make_shared<DeltaOverlay>(
          std::move(base), options_.delta_context, ++entry->delta_epoch,
          entry->current->index->utility_kind());
    }
    try {
      entry->delta->Append(text, weights);
    } catch (...) {
      if (entry->delta->poisoned()) {
        // Mid-span failure tore the overlay: pending appends are lost with
        // it; the base keeps serving exact answers over its own prefix.
        entry->delta = nullptr;
        ++entry->delta_epoch;
      }
      return ServeStatus::kIndexUnavailable;
    }
    ++entry->appends;
    {
      auto read = entry->delta->LockForRead();
      if (options_.delta_compact_threshold > 0 &&
          entry->delta->AppendedLocked() >= options_.delta_compact_threshold &&
          !entry->compaction_scheduled) {
        compact_boundary = entry->delta->TotalSizeLocked();
        compact_epoch = entry->delta->epoch();
        schedule_compaction = true;
      }
    }
    if (schedule_compaction) {
      // Snapshot under the entry lock (appenders are excluded, so the
      // snapshot IS the content compact_boundary describes) and mark the
      // compaction in flight — one at a time per text.
      compact_ws = entry->delta->SnapshotMerged();
      compact_generation = ++entry->scheduled;
      entry->compaction_scheduled = true;
    }
  }
  // Appended content changed the text: recorded tier answers (and their
  // bounds) describe the shorter text.
  if (entry->tier != nullptr) entry->tier->Clear();
  appends_.fetch_add(1, std::memory_order_relaxed);
  if (schedule_compaction) {
    ScheduleBuild(std::move(entry), std::move(compact_ws), compact_generation,
                  {}, true, compact_boundary, compact_epoch);
  }
  return ServeStatus::kOk;
}

bool UsiMultiService::UnregisterText(std::string_view id) {
  EntryPtr entry;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    auto it = registry_.find(id);
    if (it == registry_.end()) return false;
    entry = it->second;
    registry_.erase(it);
  }
  // Reclaim queued build work: jobs for this text that have not started are
  // dropped. Each dropped job still counts as a completed build — a
  // WaitForBuilds (or a WaitForText that grabbed the EntryPtr before the
  // erase) blocks on scheduled==completed targets and must not hang on work
  // that will never run.
  std::size_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(build_mu_);
    for (auto it = build_queue_.begin(); it != build_queue_.end();) {
      if (it->entry == entry) {
        it = build_queue_.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
    builds_completed_ += dropped;
  }
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    entry->removed = true;  // A build mid-run skips its publish.
    entry->completed += dropped;
    entry->building = false;
    // Drop the registry's generation reference. In-flight batches that
    // pinned it keep serving (RCU: their shared_ptrs keep entry and
    // generation alive; the last reader reclaims both).
    entry->current = nullptr;
    if (entry->delta != nullptr) {
      entry->delta = nullptr;
      ++entry->delta_epoch;
    }
  }
  entry->cv.notify_all();
  build_cv_.notify_all();
  return true;
}

bool UsiMultiService::HasText(std::string_view id) const {
  return FindEntry(id) != nullptr;
}

std::vector<std::string> UsiMultiService::TextIds() const {
  std::vector<std::string> ids;
  std::lock_guard<std::mutex> lock(registry_mu_);
  ids.reserve(registry_.size());
  for (const auto& [id, entry] : registry_) ids.push_back(id);
  return ids;
}

void UsiMultiService::ScheduleBuild(EntryPtr entry, WeightedString ws,
                                    u64 generation, std::string recover_path,
                                    bool compaction, index_t compact_boundary,
                                    u64 compact_epoch) {
  if (pool_ == nullptr) {
    // Degenerate no-pool configuration: build synchronously, right here —
    // retries included (the backoff is a sleep on the caller's thread).
    BuildJob job{std::move(entry), std::move(ws), generation, 0,
                 std::chrono::steady_clock::time_point{},
                 std::move(recover_path), compaction, compact_boundary,
                 compact_epoch};
    {
      std::lock_guard<std::mutex> lock(build_mu_);
      ++builds_scheduled_;
    }
    while (!BuildOne(job)) {
      std::this_thread::sleep_until(job.not_before);
    }
    {
      std::lock_guard<std::mutex> lock(build_mu_);
      ++builds_completed_;
    }
    build_cv_.notify_all();
    return;
  }
  bool start_lane = false;
  {
    std::lock_guard<std::mutex> lock(build_mu_);
    build_queue_.push_back(BuildJob{std::move(entry), std::move(ws),
                                    generation, 0,
                                    std::chrono::steady_clock::time_point{},
                                    std::move(recover_path), compaction,
                                    compact_boundary, compact_epoch});
    ++builds_scheduled_;
    // Spawn another lane while the executor is under its configured width;
    // a surplus lane that finds nothing claimable simply retires.
    if (build_lanes_active_ < std::max(1u, options_.build_lanes)) {
      ++build_lanes_active_;
      start_lane = true;
    }
  }
  if (start_lane) pool_->Run([this] { BuildLane(); });
  build_cv_.notify_all();
}

void UsiMultiService::BuildLane() {
  for (;;) {
    BuildJob job;
    {
      std::unique_lock<std::mutex> lock(build_mu_);
      for (;;) {
        if (build_queue_.empty()) {
          --build_lanes_active_;
          // Notify while still holding the lock: a destructor waiting on
          // build_cv_ can only resume after we release it, by which point
          // this task no longer touches the service.
          build_cv_.notify_all();
          return;
        }
        // FIFO among ready jobs whose text no other lane holds: the
        // per-text claim keeps each text's generations strictly sequential
        // while distinct texts build in parallel. Retry jobs whose backoff
        // has not elapsed are skipped over (a delayed retry must not stall
        // the lane for every other text).
        const auto now = std::chrono::steady_clock::now();
        auto ready = std::find_if(
            build_queue_.begin(), build_queue_.end(), [&](const BuildJob& j) {
              return j.not_before <= now && !j.entry->lane_claimed;
            });
        if (ready != build_queue_.end()) {
          job = std::move(*ready);
          build_queue_.erase(ready);
          job.entry->lane_claimed = true;
          break;
        }
        // Nothing claimable: every remaining job is either backing off or
        // held by another lane. Sleep until the earliest unclaimed backoff
        // expires, or — all claimed — until a lane finishing wakes us.
        auto earliest = build_queue_.end();
        for (auto it = build_queue_.begin(); it != build_queue_.end(); ++it) {
          if (it->entry->lane_claimed) continue;
          if (earliest == build_queue_.end() ||
              it->not_before < earliest->not_before) {
            earliest = it;
          }
        }
        if (earliest != build_queue_.end()) {
          build_cv_.wait_until(lock, earliest->not_before);
        } else {
          build_cv_.wait(lock);
        }
      }
    }
    const bool terminal = BuildOne(job);
    {
      std::lock_guard<std::mutex> lock(build_mu_);
      job.entry->lane_claimed = false;
      if (terminal) {
        ++builds_completed_;
      } else {
        // Failed attempt, retries remain: back into the queue with its
        // backoff; it is still the same scheduled build, so the completion
        // counters do not move.
        build_queue_.push_back(std::move(job));
      }
    }
    build_cv_.notify_all();
  }
}

bool UsiMultiService::BuildOne(BuildJob& job) {
  TextEntry& entry = *job.entry;
  auto gen = std::make_shared<Generation>();
  gen->number = job.generation;
  gen->ws = std::move(job.ws);
  UsiOptions build_options;
  {
    std::lock_guard<std::mutex> lock(entry.mu);
    if (entry.removed) {
      // Unregistered while queued or retrying: the publish target is gone,
      // so the build (and any remaining retries) would be pure waste.
      // Count the job completed and stop here.
      ++entry.completed;
      entry.building = false;
      if (job.compaction) entry.compaction_scheduled = false;
      entry.cv.notify_all();
      return true;
    }
    entry.building = true;
    build_options = entry.build_options;
  }
  // The lane occupies one pool worker, and a task must not ParallelFor on
  // its own pool — so each generation builds through the sequential staged
  // pipeline, leaving the remaining workers to the query fan-out.
  build_options.threads = 1;
  // Containment boundary: anything a build can throw — bad_alloc from the
  // O(n) stage arrays, an armed failpoint, an I/O error surfacing as an
  // exception — lands here, never on the pool worker. The text is re-armed
  // for retry or quarantined; other texts and in-flight queries are
  // untouched.
  try {
    USI_FAILPOINT("multi.build");
    // Compaction-specific chaos hook: a failed fold must leave the old base
    // serving and the overlay absorbing, per the quarantine semantics.
    if (job.compaction) USI_FAILPOINT("compact.swap");
    if (!job.recover_path.empty()) {
      // Recovery after a mapped-generation fault: a heap read of the source
      // file (one sequential pass, every section checksummed) is much
      // cheaper than a rebuild, and the heap copy cannot fault again the way
      // re-mapping the file would. A file that is gone or corrupt now
      // falls through to the rebuild.
      gen->index = UsiIndex::LoadFromFile(gen->ws, job.recover_path);
    }
    if (gen->index == nullptr) {
      UsiBuilder builder(gen->ws, build_options);
      gen->index = builder.Build();
    }
  } catch (const std::bad_alloc&) {
    job.ws = std::move(gen->ws);
    return HandleBuildFailure(job, "out of memory (std::bad_alloc)");
  } catch (const std::exception& e) {
    job.ws = std::move(gen->ws);
    return HandleBuildFailure(job, e.what());
  } catch (...) {
    job.ws = std::move(gen->ws);
    return HandleBuildFailure(job, "unknown exception");
  }
  UsiServiceOptions service_options;
  service_options.min_shard_size = options_.min_shard_size;
  gen->service =
      std::make_unique<UsiService>(*gen->index, pool_, service_options);

  bool compaction_published = false;
  bool content_published = false;
  {
    std::lock_guard<std::mutex> lock(entry.mu);
    Timer publish_timer;  // Measures the lock hold appenders/pinners see.
    ++entry.completed;
    entry.building = false;
    if (job.compaction) entry.compaction_scheduled = false;
    // Monotonic publish: a stale build can never clobber a newer
    // generation. Readers that pinned the previous generation keep it
    // alive until their batch completes; the store reclaims nothing.
    // A text unregistered mid-build skips the publish entirely (the
    // generation would be unreachable — it is reclaimed right here).
    bool publish = !entry.removed && gen->number > entry.published;
    if (publish && job.compaction &&
        (entry.delta == nullptr ||
         entry.delta->epoch() != job.compact_epoch)) {
      // Epoch gate: this base indexes a snapshot of the overlay lineage
      // recorded at schedule time. The live overlay was dropped or replaced
      // since (UpdateText, a poisoned append) — it extends DIFFERENT
      // content, and merging it over this base would double-count the
      // positions both cover. The superseding build publishes instead.
      publish = false;
    }
    if (publish) {
      if (job.compaction) {
        // Fold: the new base covers [0, ns). Appends that landed during
        // the build (entry lock excludes appenders NOW, so the count is
        // exact) replay into a successor overlay warm-started over the new
        // base; none pending means no overlay at all.
        std::shared_ptr<DeltaOverlay> old = std::move(entry.delta);
        const index_t ns = job.compact_boundary;
        const index_t extra = old->TotalSizeLocked() - ns;
        if (extra > 0) {
          bool warm = !USI_FAILPOINT_FIRED("compact.warmstart");
          if (warm) {
            try {
              std::shared_ptr<const WeightedString> base(gen, &gen->ws);
              auto next = std::make_shared<DeltaOverlay>(
                  std::move(base), options_.delta_context,
                  ++entry.delta_epoch, gen->index->utility_kind());
              next->AppendFrom(*old, ns, extra);
              entry.delta = std::move(next);
            } catch (...) {
              warm = false;
            }
          }
          if (!warm) {
            // Containment fallback: keep the old overlay, move its boundary
            // to the new base's edge. Still exact — the old window's
            // content is a prefix slice of the new base — just wider than
            // needed; the next successful warm start reclaims the memory.
            old->Rebase(ns);
            entry.delta = std::move(old);
          }
        } else {
          // `old` (the last reference) releases the overlay — and with it
          // the pinned previous generation — when it leaves scope.
          ++entry.delta_epoch;
        }
        ++entry.compactions;
        compaction_published = true;
      } else if (entry.delta != nullptr) {
        // A full rebuild replaces content wholesale; an overlay created
        // against the outgoing base (appends raced the rebuild) describes
        // text this generation supersedes.
        entry.delta = nullptr;
        ++entry.delta_epoch;
      }
      entry.published = gen->number;
      entry.current = std::move(gen);
      entry.last_failed = false;
      content_published = !job.compaction;
    }
    if (compaction_published) {
      entry.compact_publish_ns =
          static_cast<u64>(publish_timer.ElapsedSeconds() * 1e9);
    }
  }
  // New content is now what readers pin. The schedule-time clear could not
  // stop readers still serving the outgoing generation from re-teaching the
  // tier its answers; this one retires them (and bumps the epoch, so groups
  // pinned before the publish cannot record after it). A compaction folds
  // the same content into a new base, so its answers stay valid.
  if (content_published && entry.tier != nullptr) entry.tier->Clear();
  entry.cv.notify_all();
  if (compaction_published) {
    compactions_.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

bool UsiMultiService::HandleBuildFailure(BuildJob& job,
                                         const std::string& what) {
  TextEntry& entry = *job.entry;
  if (job.attempt < options_.max_build_retries) {
    // Re-arm with capped exponential backoff: base, 2x, 4x, 8x, 16x.
    const unsigned shift = std::min(job.attempt, 4u);
    const auto delay = std::chrono::milliseconds(
        static_cast<u64>(options_.build_retry_backoff_ms) << shift);
    ++job.attempt;
    job.not_before = std::chrono::steady_clock::now() + delay;
    {
      std::lock_guard<std::mutex> lock(entry.mu);
      ++entry.retries;
      entry.last_error = what;
    }
    return false;
  }
  // Retries exhausted: quarantine. The build counts as completed — a
  // WaitForText must terminate and report kFailed, not hang — and the
  // previous generation, if any, keeps serving untouched. The service-wide
  // counter bumps before the state publish wakes waiters, so a caller woken
  // by WaitForText never reads a stats() snapshot missing this failure.
  builds_failed_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(entry.mu);
    ++entry.completed;
    ++entry.failed_builds;
    entry.last_error = what;
    entry.building = false;
    // A quarantined compaction re-arms the trigger: the old base keeps
    // serving, the overlay keeps absorbing, and the next append past the
    // threshold schedules a fresh fold. (While retrying, the flag stays
    // set — one compaction in flight per text.)
    if (job.compaction) entry.compaction_scheduled = false;
    if (job.generation > entry.published) entry.last_failed = true;
  }
  entry.cv.notify_all();
  return true;
}

BuildState UsiMultiService::WaitForText(std::string_view id) {
  EntryPtr entry = FindEntry(id);
  if (entry == nullptr) return BuildState::kUnknown;
  std::unique_lock<std::mutex> lock(entry->mu);
  const u64 target = entry->scheduled;
  entry->cv.wait(lock, [&] { return entry->completed >= target; });
  return entry->last_failed ? BuildState::kFailed : BuildState::kReady;
}

BuildState UsiMultiService::TextState(std::string_view id) const {
  EntryPtr entry = FindEntry(id);
  if (entry == nullptr) return BuildState::kUnknown;
  std::lock_guard<std::mutex> lock(entry->mu);
  return entry->StateLocked();
}

void UsiMultiService::WaitForBuilds() {
  std::unique_lock<std::mutex> lock(build_mu_);
  const u64 target = builds_scheduled_;
  build_cv_.wait(lock, [&] { return builds_completed_ >= target; });
}

std::unique_ptr<UsiMultiService::BatchScratch>
UsiMultiService::AcquireBatchScratch() {
  {
    std::lock_guard<std::mutex> lock(batch_scratch_mu_);
    if (!batch_scratch_free_.empty()) {
      auto scratch = std::move(batch_scratch_free_.back());
      batch_scratch_free_.pop_back();
      return scratch;
    }
  }
  return std::make_unique<BatchScratch>();
}

void UsiMultiService::ReleaseBatchScratch(
    std::unique_ptr<BatchScratch> scratch) {
  std::lock_guard<std::mutex> lock(batch_scratch_mu_);
  batch_scratch_free_.push_back(std::move(scratch));
}

ServeStatus UsiMultiService::QueryBatchInto(
    std::span<const MultiQuery> queries, std::span<QueryResult> results,
    const MultiBatchOptions& batch_options) {
  if (results.size() < queries.size()) return ServeStatus::kInvalidArgument;
  if (queries.empty()) return ServeStatus::kOk;

  // Degradation ladder opt-in: a shed or failed batch is answered from the
  // per-text tiers (exact -> cache -> sketch -> none) instead of rejected.
  const bool degrade =
      batch_options.allow_degraded && options_.enable_degraded_tier;

  // Admission, stage 1 — the in-flight count cap: a counter, not a queue,
  // so overload is shed with kBusy immediately instead of building an
  // unbounded backlog.
  const u64 cap = static_cast<u64>(options_.max_inflight_batches);
  const u64 inflight =
      inflight_batches_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (cap != 0 && inflight > cap) {
    inflight_batches_.fetch_sub(1, std::memory_order_release);
    // Shedding to the tier costs microseconds and touches no engine, so a
    // degraded serve does not re-enter admission: the caller still gets an
    // answer per slot while the exact path stays protected.
    if (degrade) return ServeDegradedBatch(queries, results);
    busy_rejected_.fetch_add(1, std::memory_order_relaxed);
    return ServeStatus::kBusy;
  }
  struct InflightRelease {
    std::atomic<u64>& counter;
    ~InflightRelease() { counter.fetch_sub(1, std::memory_order_release); }
  } inflight_release{inflight_batches_};

  // Admission, stage 2 — the cost cap, checked BEFORE routing and scratch
  // acquisition: at saturation most batches are shed, and a rejection that
  // pays for pinning and group-building contends with the batches actually
  // serving (rejection itself becomes the overload). The pre-pass only
  // accumulates pattern bytes per distinct text id and prices them with
  // that text's calibrated ns-per-byte (the prior until a text has served
  // kCostCalibrationBytes). Unknown ids contribute nothing here; routing
  // below still reports them as kUnknownText before any query executes.
  // A lone batch (nothing else in flight) always admits, whatever its
  // estimate — the cap bounds concurrency pile-up, it must not make a big
  // batch unservable.
  const u64 cost_cap_ns =
      static_cast<u64>(options_.max_inflight_cost_ms * 1e6);
  u64 est_cost_ns = 0;
  bool cost_charged = false;
  if (cost_cap_ns != 0) {
    struct IdBytes {
      std::string_view id;
      double bytes;
    };
    // Reused across calls: zero steady-state allocation, thread-confined.
    thread_local std::vector<IdBytes> per_id;
    per_id.clear();
    for (const MultiQuery& q : queries) {
      IdBytes* found = nullptr;
      for (IdBytes& entry : per_id) {
        if (entry.id == q.text_id) {
          found = &entry;
          break;
        }
      }
      if (found == nullptr) {
        per_id.push_back({q.text_id, 0});
        found = &per_id.back();
      }
      found->bytes += static_cast<double>(q.pattern.size_bytes());
    }
    double est = 0;
    for (const IdBytes& id_bytes : per_id) {
      const EntryPtr entry = FindEntry(id_bytes.id);
      if (entry == nullptr) continue;
      const u64 served_bytes =
          entry->served_bytes.load(std::memory_order_relaxed);
      const double per_byte =
          served_bytes >= kCostCalibrationBytes
              ? static_cast<double>(
                    entry->served_ns.load(std::memory_order_relaxed)) /
                    static_cast<double>(served_bytes)
              : options_.default_cost_ns_per_byte;
      est += id_bytes.bytes * per_byte;
    }
    est_cost_ns = static_cast<u64>(est);
    // Admit while the cost already in flight is under the budget; the last
    // admit may overshoot, exactly as a count cap of N admits the Nth batch
    // regardless of the others' progress. (Charging `prev + est > cap`
    // instead would reject the second batch whenever its estimate drifts a
    // hair past half the budget — effectively halving concurrency relative
    // to the count cap it replaces.) prev == 0 admits unconditionally: a
    // lone batch must serve whatever its estimate.
    const u64 prev =
        inflight_cost_ns_.fetch_add(est_cost_ns, std::memory_order_acq_rel);
    if (prev >= cost_cap_ns) {
      inflight_cost_ns_.fetch_sub(est_cost_ns, std::memory_order_release);
      if (degrade) return ServeDegradedBatch(queries, results);
      overload_rejected_.fetch_add(1, std::memory_order_relaxed);
      return ServeStatus::kOverloaded;
    }
    cost_charged = true;
  }
  struct CostRelease {
    std::atomic<u64>* counter;
    u64 charge;
    ~CostRelease() {
      if (counter != nullptr) {
        counter->fetch_sub(charge, std::memory_order_release);
      }
    }
  } cost_release{cost_charged ? &inflight_cost_ns_ : nullptr, est_cost_ns};

  std::unique_ptr<BatchScratch> scratch = AcquireBatchScratch();
  std::size_t used_groups = 0;
  const auto cleanup = [&] {
    for (std::size_t k = 0; k < used_groups; ++k) {
      scratch->groups[k].entry.reset();
      scratch->groups[k].gen.reset();  // Unpin: may reclaim an old generation.
      scratch->groups[k].delta.reset();
    }
    ReleaseBatchScratch(std::move(scratch));
  };

  // Route: group query positions per text, pinning each text's current
  // generation exactly once — the whole batch is answered from a consistent
  // snapshot per text, whatever the rebuild lane does meanwhile.
  BatchScratch::Group* last_group = nullptr;
  std::string_view last_id{};
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const MultiQuery& q = queries[i];
    if (last_group == nullptr || q.text_id != last_id) {
      last_group = nullptr;
      for (std::size_t k = 0; k < used_groups; ++k) {
        if (scratch->groups[k].entry->id == q.text_id) {
          last_group = &scratch->groups[k];
          break;
        }
      }
      if (last_group == nullptr) {
        EntryPtr entry = FindEntry(q.text_id);
        if (entry == nullptr) {
          cleanup();
          return ServeStatus::kUnknownText;
        }
        // Epoch first, pin second: every content change (rebuild publish,
        // append) clears the tier only after it has swapped under the entry
        // lock. If this pin came before the swap, the epoch read before the
        // pin is older than that clear, so the group's records are dropped.
        const u64 tier_epoch =
            entry->tier != nullptr ? entry->tier->epoch() : 0;
        std::shared_ptr<const Generation> gen;
        std::shared_ptr<DeltaOverlay> delta;
        entry->PinServing(&gen, &delta);
        if (gen == nullptr && !(degrade && entry->tier != nullptr)) {
          cleanup();
          return ServeStatus::kNotReady;
        }
        // gen may be null past this point: a degraded-opt-in batch admits a
        // generation-less text (first build pending, or quarantined while
        // the build lane retries) and serves that group from its tier.
        if (used_groups == scratch->groups.size()) {
          scratch->groups.emplace_back();
        }
        last_group = &scratch->groups[used_groups++];
        last_group->entry = std::move(entry);
        last_group->gen = std::move(gen);
        last_group->delta = std::move(delta);
        last_group->tier_epoch = tier_epoch;
        last_group->indices.clear();
      }
      last_id = q.text_id;
    }
    last_group->indices.push_back(static_cast<u32>(i));
  }

  // Serve each group through its generation's UsiService: gather the
  // group's patterns contiguously, answer (sharded across the shared pool
  // for batches worth fanning out), scatter back to the callers' slots.
  // The deadline checkpoint sits between groups (and, via the forwarded
  // batch options, between shards inside each group); once it trips, the
  // remaining groups' result slots are default-filled, honoring the
  // partial-status contract that every slot is written.
  const bool has_deadline = batch_options.deadline.has_value();
  bool expired = false;
  bool unavailable = false;
  bool degraded_used = false;
  std::size_t answered = 0;
  std::size_t answered_degraded = 0;
  for (std::size_t k = 0; k < used_groups; ++k) {
    BatchScratch::Group& group = scratch->groups[k];
    const std::size_t n = group.indices.size();
    DegradedTier* tier = degrade ? group.entry->tier.get() : nullptr;
    if (expired ||
        (has_deadline &&
         std::chrono::steady_clock::now() >= *batch_options.deadline)) {
      expired = true;
      // Deadline rung: unreached slots get tier answers instead of bare
      // defaults (status stays kDeadlineExceeded; provenance tells the
      // caller which slots the tier filled).
      answered_degraded += FillFromTier(tier, queries, group.indices, results);
      continue;
    }
    if (group.gen == nullptr) {
      // Quarantine rung: no servable generation, whole group from the tier
      // while the build lane retries in the background.
      answered_degraded += FillFromTier(tier, queries, group.indices, results);
      degraded_used = true;
      group.entry->batches.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (scratch->patterns.size() < n) scratch->patterns.resize(n);
    if (scratch->results.size() < n) scratch->results.resize(n);
    u64 group_bytes = 0;
    for (std::size_t j = 0; j < n; ++j) {
      scratch->patterns[j] = queries[group.indices[j]].pattern;
      group_bytes += scratch->patterns[j].size_bytes();
    }
    UsiBatchStats batch_stats;
    UsiBatchOptions sub_options;
    sub_options.deadline = batch_options.deadline;
    Timer group_timer;
    const ServeStatus group_status = group.gen->service->QueryBatchInto(
        std::span<const PatternSpan>(scratch->patterns.data(), n),
        std::span<QueryResult>(scratch->results.data(), n), &batch_stats,
        sub_options);
    // Update-tier merge: the pinned base answered occurrences ending inside
    // its own prefix; the pinned overlay answers those ending past it. One
    // read lock spans the whole group, so every slot merges against the
    // same append snapshot. Taken only after the entry lock was released
    // (pinning) — the service-wide lock order.
    bool delta_discarded = false;
    if (group.delta != nullptr) {
      auto read = group.delta->LockForRead();
      if (group.delta->AppendedLocked() > 0) {
        if (group_status == ServeStatus::kOk) {
          const GlobalUtilityKind kind = group.gen->index->utility_kind();
          for (std::size_t j = 0; j < n; ++j) {
            const QueryResult cross = group.delta->QueryCrossingLocked(
                scratch->patterns[j], scratch->delta_scratch);
            if (cross.occurrences > 0) {
              scratch->results[j] =
                  MergeQueryResults(scratch->results[j], cross, kind);
              // The table's precomputed answer covered the base only.
              scratch->results[j].from_hash_table = false;
            }
          }
        } else if (group_status == ServeStatus::kDeadlineExceeded) {
          // The deadline tripped mid-group: which slots the base reached is
          // known, but an "answered" slot here carries a base-only answer —
          // NOT a full-text answer — and the caller cannot tell it from a
          // complete one. Discard to defaults (the partial-status contract:
          // unreached slots carry QueryResult{}).
          for (std::size_t j = 0; j < n; ++j) {
            scratch->results[j] = QueryResult{};
          }
          delta_discarded = true;
        }
      }
    }
    for (std::size_t j = 0; j < n; ++j) {
      results[group.indices[j]] = scratch->results[j];
    }
    if (!delta_discarded) answered += batch_stats.answered;
    group.entry->batches.fetch_add(1, std::memory_order_relaxed);
    group.entry->queries.fetch_add(batch_stats.answered,
                                   std::memory_order_relaxed);
    group.entry->hash_hits.fetch_add(batch_stats.hash_hits,
                                     std::memory_order_relaxed);
    if (group_status == ServeStatus::kOk) {
      // Feed the tier from the exact path: every served (pattern, answer)
      // pair is popularity evidence and a candidate cache/sketch entry.
      // Recording happens whether or not THIS batch opted into degraded
      // serving — learning must precede the first failure. The batch
      // record never blocks (one try_lock per chunk, drop on contention),
      // never allocates, and drops the group if its epoch went stale.
      if (group.entry->tier != nullptr) {
        group.entry->tier->RecordExactBatch(
            std::span<const PatternSpan>(scratch->patterns.data(), n),
            std::span<const QueryResult>(scratch->results.data(), n),
            group.tier_epoch);
      }
      // Cost-model calibration: only fully-served groups feed the estimate
      // (a partial group's bytes/time ratio is not the text's). Wall time
      // under a shared pool scales with the number of concurrent batches,
      // so charge the CPU share instead: otherwise saturation inflates the
      // calibrated ns/byte and the cost cap under-admits against a budget
      // expressed in intrinsic (unloaded) serving cost.
      const u64 concurrent = std::max<u64>(
          1, static_cast<u64>(
                 inflight_batches_.load(std::memory_order_relaxed)));
      group.entry->served_bytes.fetch_add(group_bytes,
                                          std::memory_order_relaxed);
      group.entry->served_ns.fetch_add(
          static_cast<u64>(group_timer.ElapsedSeconds() * 1e9) / concurrent,
          std::memory_order_relaxed);
    } else if (group_status == ServeStatus::kDeadlineExceeded) {
      expired = true;
    } else if (group_status == ServeStatus::kIndexUnavailable) {
      if (tier != nullptr) {
        // Fault rung: the group's engine failed mid-serve (mapped fault or
        // an exception out of the fallback path). Which slots it reached is
        // unknowable from here — a legitimate exact answer and a failure
        // default are both representable as zeros — so the WHOLE group is
        // re-answered from the tier with honest provenance on every slot.
        answered_degraded +=
            FillFromTier(tier, queries, group.indices, results);
        degraded_used = true;
      } else {
        unavailable = true;
      }
      if (group.gen->mapped) {
        // A mapped generation faulted (truncated or revoked backing file):
        // demote it so no later batch serves from the bad mapping, and
        // schedule a recovery build — heap load of the source file when it
        // is still good, full rebuild otherwise. Only the first batch to
        // observe the fault demotes (the pointer compare); concurrent
        // failures of the same generation are no-ops here.
        TextEntry& entry = *group.entry;
        bool demoted = false;
        u64 generation = 0;
        std::string recover_path;
        {
          std::lock_guard<std::mutex> lock(entry.mu);
          if (entry.current == group.gen) {
            entry.current = nullptr;
            // The overlay extends the demoted base; the recovery build
            // re-indexes the base content alone, so pending appends are
            // dropped with the mapping that lost them.
            if (entry.delta != nullptr) {
              entry.delta = nullptr;
              ++entry.delta_epoch;
            }
            generation = ++entry.scheduled;
            recover_path = entry.source_path;
            demoted = true;
          }
        }
        if (demoted) {
          ScheduleBuild(group.entry, WeightedString(group.gen->ws),
                        generation, std::move(recover_path));
        }
      }
    }
  }

  batches_.fetch_add(1, std::memory_order_relaxed);
  queries_.fetch_add(answered, std::memory_order_relaxed);
  if (answered_degraded != 0) {
    degraded_answers_.fetch_add(answered_degraded, std::memory_order_relaxed);
  }
  if (expired) deadline_expired_.fetch_add(1, std::memory_order_relaxed);
  if (unavailable) {
    index_unavailable_.fetch_add(1, std::memory_order_relaxed);
  }
  cleanup();
  if (unavailable) return ServeStatus::kIndexUnavailable;
  if (expired) return ServeStatus::kDeadlineExceeded;
  if (degraded_used) {
    degraded_batches_.fetch_add(1, std::memory_order_relaxed);
    return ServeStatus::kDegraded;
  }
  return ServeStatus::kOk;
}

std::size_t UsiMultiService::FillFromTier(DegradedTier* tier,
                                          std::span<const MultiQuery> queries,
                                          std::span<const u32> indices,
                                          std::span<QueryResult> results) {
  std::size_t filled = 0;
  for (const u32 idx : indices) {
    filled += AnswerFromTier(tier, queries[idx].pattern, results[idx]) ? 1 : 0;
  }
  return filled;
}

ServeStatus UsiMultiService::ServeDegradedBatch(
    std::span<const MultiQuery> queries, std::span<QueryResult> results) {
  // Validation pass first: the all-or-nothing kUnknownText contract (no
  // result slot touched) holds on the degraded path too.
  {
    std::string_view last_id{};
    bool have_last = false;
    for (const MultiQuery& q : queries) {
      if (have_last && q.text_id == last_id) continue;
      if (FindEntry(q.text_id) == nullptr) return ServeStatus::kUnknownText;
      last_id = q.text_id;
      have_last = true;
    }
  }
  std::size_t filled = 0;
  std::string_view last_id{};
  EntryPtr entry;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const MultiQuery& q = queries[i];
    if (entry == nullptr || q.text_id != last_id) {
      entry = FindEntry(q.text_id);  // May be gone since validation: kNone.
      last_id = q.text_id;
    }
    DegradedTier* tier = entry == nullptr ? nullptr : entry->tier.get();
    filled += AnswerFromTier(tier, q.pattern, results[i]) ? 1 : 0;
  }
  degraded_batches_.fetch_add(1, std::memory_order_relaxed);
  if (filled != 0) {
    degraded_answers_.fetch_add(filled, std::memory_order_relaxed);
  }
  return ServeStatus::kDegraded;
}

MultiBatchResult UsiMultiService::QueryBatch(
    std::span<const MultiQuery> queries) {
  MultiBatchResult out;
  out.results.resize(queries.size());
  out.status = QueryBatchInto(queries, out.results);
  // The partial statuses return written (if partly default) slots; only the
  // all-or-nothing rejections leave nothing worth returning.
  if (out.status != ServeStatus::kOk &&
      out.status != ServeStatus::kDeadlineExceeded &&
      out.status != ServeStatus::kIndexUnavailable &&
      out.status != ServeStatus::kDegraded) {
    out.results.clear();
  }
  return out;
}

ServeStatus UsiMultiService::Query(std::string_view text_id,
                                   std::span<const Symbol> pattern,
                                   QueryResult& result) {
  const MultiQuery query{text_id, pattern};
  return QueryBatchInto(std::span<const MultiQuery>(&query, 1),
                        std::span<QueryResult>(&result, 1));
}

std::optional<UsiTextStats> UsiMultiService::StatsFor(
    std::string_view id) const {
  EntryPtr entry = FindEntry(id);
  if (entry == nullptr) return std::nullopt;
  UsiTextStats stats;
  if (std::shared_ptr<const Generation> gen = entry->PinGeneration()) {
    stats.generation = gen->number;
    stats.last_build = gen->index->build_info();
  }
  std::shared_ptr<DeltaOverlay> delta;
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    stats.builds_scheduled = entry->scheduled;
    stats.builds_completed = entry->completed;
    stats.builds_failed = entry->failed_builds;
    stats.build_retries = entry->retries;
    stats.build_state = entry->StateLocked();
    stats.last_build_error = entry->last_error;
    stats.appends = entry->appends;
    stats.compactions = entry->compactions;
    stats.compact_publish_ns = entry->compact_publish_ns;
    delta = entry->delta;  // Snapshot OUTSIDE the entry lock (lock order).
  }
  if (delta != nullptr) stats.delta = delta->StatsSnapshot();
  stats.batches = entry->batches.load(std::memory_order_relaxed);
  stats.queries = entry->queries.load(std::memory_order_relaxed);
  stats.hash_hits = entry->hash_hits.load(std::memory_order_relaxed);
  const u64 served_bytes =
      entry->served_bytes.load(std::memory_order_relaxed);
  if (served_bytes >= kCostCalibrationBytes) {
    stats.cost_ns_per_byte =
        static_cast<double>(entry->served_ns.load(std::memory_order_relaxed)) /
        static_cast<double>(served_bytes);
  }
  if (entry->tier != nullptr) stats.degraded = entry->tier->stats();
  return stats;
}

UsiMultiStats UsiMultiService::stats() const {
  UsiMultiStats stats;
  stats.batches = batches_.load(std::memory_order_relaxed);
  stats.queries = queries_.load(std::memory_order_relaxed);
  stats.busy_rejected = busy_rejected_.load(std::memory_order_relaxed);
  stats.overload_rejected =
      overload_rejected_.load(std::memory_order_relaxed);
  stats.deadline_expired =
      deadline_expired_.load(std::memory_order_relaxed);
  stats.index_unavailable =
      index_unavailable_.load(std::memory_order_relaxed);
  stats.builds_failed = builds_failed_.load(std::memory_order_relaxed);
  stats.appends = appends_.load(std::memory_order_relaxed);
  stats.compactions = compactions_.load(std::memory_order_relaxed);
  stats.degraded_batches =
      degraded_batches_.load(std::memory_order_relaxed);
  stats.degraded_answers =
      degraded_answers_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(build_mu_);
    stats.builds_scheduled = builds_scheduled_;
    stats.builds_completed = builds_completed_;
  }
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    stats.texts = registry_.size();
  }
  return stats;
}

}  // namespace usi
