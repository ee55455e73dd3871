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
#include "usi/util/memory.hpp"
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
/// pattern bytes; below the threshold kCostPriorNsPerByte is used.
constexpr u64 kCostCalibrationBytes = 1024;

/// Cost-model prior: assumed serving cost per pattern byte before a text's
/// own telemetry has calibrated it.
constexpr double kCostPriorNsPerByte = 50.0;

/// A non-finite weight would poison every later PSW sum; every write entry
/// point rejects one before anything changes.
bool AllFinite(std::span<const double> weights) {
  return std::all_of(weights.begin(), weights.end(),
                     [](double w) { return std::isfinite(w); });
}

/// The one admission rule, shared by the batch-count and the cost gauge:
/// charge \p gauge, and admit while what was already in flight is under
/// \p cap (0 = uncapped). The last admit may overshoot, exactly as a count
/// cap of N admits the Nth batch regardless of the others' progress, and
/// prev == 0 always admits: a lone batch serves whatever its charge. A
/// rejection undoes its charge before returning.
bool TryCharge(std::atomic<u64>& gauge, u64 charge, u64 cap) {
  const u64 prev = gauge.fetch_add(charge, std::memory_order_acq_rel);
  if (cap == 0 || prev < cap) return true;
  gauge.fetch_sub(charge, std::memory_order_release);
  return false;
}

}  // namespace

/// One immutable index generation. UsiIndex borrows *ws; the shared_ptr
/// holding the Generation keeps both alive for as long as any batch still
/// serves from it. The text is shared, never copied: an overlay extending
/// the generation and a recovery job re-indexing it hold the same pointer.
struct UsiMultiService::Generation {
  u64 number = 0;
  std::shared_ptr<const WeightedString> ws;
  std::unique_ptr<UsiIndex> index;    ///< Borrows *ws.
  std::unique_ptr<UsiService> service;  ///< Borrows index + the shared pool.
  /// Non-empty: serving straight out of this mmap'd file
  /// (RegisterTextFromFile). A mapped generation that faults mid-serve
  /// (SIGBUS on a truncated or revoked backing file) is demoted and
  /// recovered, by a heap read of this file when it is still good; heap
  /// generations cannot lose their backing, so a serve failure there is
  /// reported but never demotes.
  std::string source_path;
};

/// Registry slot for one named text. `current` is the generation pointer
/// readers pin (a shared_ptr copy under a pointer-copy-scale lock; see
/// PinServing); everything else behind `mu` is build bookkeeping writers
/// touch briefly. Waiters on `cv` release `mu` while blocked, so pinning
/// never queues behind a WaitForText.
struct UsiMultiService::TextEntry {
  std::string id;

  std::mutex mu;  ///< Guards current, build_options, scheduled, completed,
                  ///< published, building, last_failed, last_error,
                  ///< failed_builds, retries, removed, delta,
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

  /// The reader-side pin: shared_ptr copies of the generation and the
  /// update-tier overlay, taken in ONE critical section of `mu` — the pair
  /// describes one boundary, so a batch can never merge a new delta into an
  /// old base (or vice versa). The lock is held for refcount increments —
  /// not for the batch — so a rebuild publishing concurrently never blocks
  /// readers for longer than a pointer copy. (std::atomic<std::shared_ptr>
  /// would make this genuinely lock-free, but libstdc++'s implementation
  /// guards the pointer with a lock bit ThreadSanitizer cannot model, and
  /// the TSan CI job is part of this contract.) Returns false when the
  /// text was unregistered since the batch looked it up.
  bool PinServing(std::shared_ptr<const Generation>* gen_out,
                  std::shared_ptr<DeltaOverlay>* delta_out) {
    std::lock_guard<std::mutex> lock(mu);
    *gen_out = current;
    *delta_out = delta;
    return !removed;
  }

  /// Drops the update-tier overlay and bumps its lineage, so a compaction
  /// scheduled against the dropped overlay can no longer publish. Caller
  /// holds `mu`.
  void DropDeltaLocked() {
    if (delta == nullptr) return;
    delta = nullptr;
    ++delta_epoch;
  }

  /// Calibrated serving cost in ns per pattern byte, or \p prior until the
  /// text has served kCostCalibrationBytes.
  double CostNsPerByte(double prior) const {
    const u64 bytes = served_bytes.load(std::memory_order_relaxed);
    if (bytes < kCostCalibrationBytes) return prior;
    return static_cast<double>(served_ns.load(std::memory_order_relaxed)) /
           static_cast<double>(bytes);
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
  std::shared_ptr<const WeightedString> ws;  ///< Shared with the generation.
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

/// One QueryBatchInto call's state as it moves through the stages: the
/// request, the per-text groups (with their pinned generations and serve
/// outcomes) and gather/scatter staging. Each thread keeps one, reused
/// across its batches, so a steady-state batch shape stops allocating once
/// capacities are warm.
struct UsiMultiService::BatchScratch {
  std::span<const MultiQuery> queries;
  std::span<QueryResult> results;
  /// Degradation ladder opt-in: slots no engine answered are answered from
  /// the per-text tiers (exact -> cache -> sketch -> none), not left kNone.
  bool degrade = false;
  bool expired = false;           ///< The deadline expired during Serve.
  std::size_t tier_answers = 0;   ///< Slots a tier rung answered.
  struct Group {
    EntryPtr entry;
    std::shared_ptr<const Generation> gen;  ///< Null: nothing servable.
    /// The update-tier overlay pinned WITH gen (one entry-lock critical
    /// section), so the group's base and delta describe the same boundary.
    std::shared_ptr<DeltaOverlay> delta;
    /// The text tier's epoch, read just BEFORE the pin: answers recorded
    /// with it are dropped if a content change cleared the tier since.
    u64 tier_epoch = 0;
    std::vector<u32> indices;  ///< Positions in the incoming batch.
    u64 bytes = 0;             ///< Pattern bytes routed to this group.
    std::size_t offset = 0;    ///< Start of the group's staging range.
    /// The serve stage got to this group (it counts in the text's batches).
    bool reached = false;
    /// What the group's result slots hold. kOk: every one exact.
    /// kDeadlineExceeded / kIndexUnavailable: every one written, exact or
    /// kNone filler where the engine did not answer. kNotReady: none
    /// written yet (shed, skipped past the deadline, or no generation).
    ServeStatus status = ServeStatus::kNotReady;
    UsiBatchStats stats;  ///< The engine's telemetry for this group.
  };
  std::vector<Group> groups;
  std::size_t used = 0;  ///< groups[0..used) active this batch.
  /// Gathered patterns, each group's at its offset: spans pointing into the
  /// callers' request storage (MultiQuery::pattern bytes, alive for the
  /// whole QueryBatchInto call) — the gather copies pointers, never bytes.
  std::vector<PatternSpan> patterns;
  std::vector<QueryResult> staged;  ///< Engine answers, staged likewise.
  DeltaOverlay::Scratch delta_scratch;  ///< Crossing-probe reuse buffers.
};

/// Drops the groups' pins and empties the group list on every exit of
/// QueryBatchInto; the thread's BatchScratch keeps its buffers. Dropping
/// the last pin may reclaim an old generation.
struct UsiMultiService::UnpinGuard {
  BatchScratch& batch;

  ~UnpinGuard() {
    for (std::size_t k = 0; k < batch.used; ++k) {
      BatchScratch::Group& group = batch.groups[k];
      group.entry.reset();
      group.gen.reset();
      group.delta.reset();
    }
    batch.used = 0;
  }
};

/// The admission charges a batch holds while it serves. The one release
/// guard: both gauges are undone when the batch leaves, on every exit.
struct UsiMultiService::AdmissionCharge {
  UsiMultiService& service;
  bool batch = false;
  u64 cost_ns = 0;

  explicit AdmissionCharge(UsiMultiService& owner) : service(owner) {}
  ~AdmissionCharge() { Release(); }
  AdmissionCharge(const AdmissionCharge&) = delete;
  AdmissionCharge& operator=(const AdmissionCharge&) = delete;

  void Release() {
    if (std::exchange(batch, false)) {
      service.inflight_batches_.fetch_sub(1, std::memory_order_release);
    }
    if (cost_ns != 0) {
      service.inflight_cost_ns_.fetch_sub(std::exchange(cost_ns, 0),
                                          std::memory_order_release);
    }
  }
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
  {
    std::unique_lock<std::mutex> lock(build_mu_);
    build_cv_.wait(lock, [this] {
      return build_queue_.empty() && build_lanes_active_ == 0;
    });
  }
  // Drop every text's generations now rather than in member teardown, and
  // hand the O(n) arrays they held back to the OS: left in the allocator's
  // arenas they stay resident, and the next service's builds fill them in a
  // different order and peak higher. No reader runs during destruction.
  registry_.clear();
  ReleaseFreedHeap();
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
  if (!AllFinite(ws.weights())) return 0;
  EntryPtr entry = EnsureEntry(id);
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    entry->build_options = build_options;
  }
  return ReplaceText(std::move(entry), std::move(ws));
}

u64 UsiMultiService::SubmitText(std::string_view id, WeightedString ws) {
  return SubmitText(id, std::move(ws), options_.default_build);
}

u64 UsiMultiService::UpdateText(std::string_view id, WeightedString ws) {
  if (!AllFinite(ws.weights())) return 0;
  EntryPtr entry = FindEntry(id);
  if (entry == nullptr) return 0;
  return ReplaceText(std::move(entry), std::move(ws));
}

u64 UsiMultiService::ReplaceText(EntryPtr entry, WeightedString ws) {
  BuildJob job;
  job.generation = BeginReplacement(*entry);
  job.entry = std::move(entry);
  job.ws = std::make_shared<const WeightedString>(std::move(ws));
  const u64 generation = job.generation;
  ScheduleBuild(std::move(job));
  return generation;
}

u64 UsiMultiService::BeginReplacement(TextEntry& entry) {
  u64 generation = 0;
  {
    std::lock_guard<std::mutex> lock(entry.mu);
    generation = ++entry.scheduled;
    // Full-content replacement supersedes the update tier: pending appends
    // describe the outgoing text.
    entry.DropDeltaLocked();
  }
  // New content: recorded answers (and their bounds) describe the old text.
  if (entry.tier != nullptr) entry.tier->Clear();
  return generation;
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
  gen->ws = std::make_shared<const WeightedString>(std::move(ws));
  gen->index = UsiIndex::OpenMapped(*gen->ws, path);
  if (gen->index == nullptr) return 0;
  gen->source_path = path;
  WrapGeneration(*gen);

  EntryPtr entry = EnsureEntry(id);
  gen->number = BeginReplacement(*entry);
  const u64 generation = gen->number;
  Publish(*entry, std::move(gen), nullptr);
  // Account the instant publish as a scheduled-and-completed build so
  // WaitForText/WaitForBuilds targets stay consistent with SubmitText's.
  {
    std::lock_guard<std::mutex> lock(build_mu_);
    ++builds_scheduled_;
    ++builds_completed_;
  }
  build_cv_.notify_all();
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
  // Like a length mismatch, a non-finite weight is rejected before anything
  // changes.
  if (text.size() != weights.size() || !AllFinite(weights)) {
    return ServeStatus::kInvalidArgument;
  }
  EntryPtr entry = FindEntry(id);
  if (entry == nullptr) return ServeStatus::kUnknownText;

  BuildJob compaction;  // Scheduled below when compaction.entry is set.
  {
    // The entry lock is held for the whole append (overlay creation, the
    // append itself, the compaction decision): it serializes appenders and
    // — because the compaction publish also swaps under this lock — an
    // append can never land in an overlay that is being replaced mid-span.
    // Readers are unaffected: they pin (pointer copy) and probe the overlay
    // under ITS lock, never this one.
    std::lock_guard<std::mutex> lock(entry->mu);
    if (entry->current == nullptr) {
      // Appends extend a published base; before the first publish there is
      // no boundary to append past (and no index to merge with).
      return ServeStatus::kNotReady;
    }
    // An empty span changes no content: nothing to absorb, count or clear.
    if (text.empty()) return ServeStatus::kOk;
    if (entry->delta == nullptr) {
      // First append against this generation: the overlay shares the
      // generation's text, so the base stays alive as long as it does.
      entry->delta = std::make_shared<DeltaOverlay>(
          entry->current->ws, options_.delta_context, ++entry->delta_epoch,
          entry->current->index->utility_kind());
    }
    try {
      entry->delta->Append(text, weights);
    } catch (...) {
      // Mid-span failure tore the overlay: pending appends are lost with
      // it; the base keeps serving exact answers over its own prefix.
      if (entry->delta->poisoned()) entry->DropDeltaLocked();
      return ServeStatus::kIndexUnavailable;
    }
    ++entry->appends;
    TakeCompactionLocked(entry, &compaction);
  }
  // Appended content changed the text: recorded tier answers (and their
  // bounds) describe the shorter text.
  if (entry->tier != nullptr) entry->tier->Clear();
  appends_.fetch_add(1, std::memory_order_relaxed);
  if (compaction.entry != nullptr) ScheduleBuild(std::move(compaction));
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
    dropped = std::erase_if(
        build_queue_, [&](const BuildJob& job) { return job.entry == entry; });
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
    entry->DropDeltaLocked();
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

void UsiMultiService::TakeCompactionLocked(const EntryPtr& entry,
                                           BuildJob* job) {
  const DeltaOverlay* delta = entry->delta.get();
  if (options_.delta_compact_threshold == 0 || entry->compaction_scheduled ||
      delta == nullptr ||
      delta->AppendedLocked() < options_.delta_compact_threshold) {
    return;
  }
  // The entry lock excludes every overlay writer, so the snapshot IS the
  // content compact_boundary describes. One compaction in flight per text.
  job->entry = entry;
  job->ws = std::make_shared<const WeightedString>(delta->SnapshotMerged());
  job->generation = ++entry->scheduled;
  job->compaction = true;
  job->compact_boundary = delta->TotalSizeLocked();
  job->compact_epoch = delta->epoch();
  entry->compaction_scheduled = true;
}

void UsiMultiService::ScheduleBuild(BuildJob job) {
  bool start_lane = false;
  {
    std::lock_guard<std::mutex> lock(build_mu_);
    ++builds_scheduled_;
    // Spawn another lane while the executor is under its configured width;
    // a surplus lane that finds nothing claimable simply retires.
    if (pool_ != nullptr) {
      build_queue_.push_back(std::move(job));
      if (build_lanes_active_ < std::max(1u, options_.build_lanes)) {
        ++build_lanes_active_;
        start_lane = true;
      }
    }
  }
  if (pool_ == nullptr) {
    // Degenerate no-pool configuration: build synchronously, right here —
    // retries included (the backoff is a sleep on the caller's thread).
    while (!BuildOne(job)) std::this_thread::sleep_until(job.not_before);
    std::lock_guard<std::mutex> lock(build_mu_);
    ++builds_completed_;
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
        constexpr auto kNever = std::chrono::steady_clock::time_point::max();
        auto wake = kNever;
        for (const BuildJob& j : build_queue_) {
          if (!j.entry->lane_claimed) wake = std::min(wake, j.not_before);
        }
        if (wake == kNever) {
          build_cv_.wait(lock);
        } else {
          build_cv_.wait_until(lock, wake);
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
  gen->ws = job.ws;
  UsiOptions build_options;
  bool removed = false;
  {
    std::lock_guard<std::mutex> lock(entry.mu);
    entry.building = true;
    removed = entry.removed;
    build_options = entry.build_options;
  }
  if (removed) {
    // Unregistered while queued or retrying: the publish target is gone,
    // so the build (and any remaining retries) would be pure waste. The
    // publish only accounts the job completed.
    Publish(entry, std::move(gen), &job);
    return true;
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
      gen->index = UsiIndex::LoadFromFile(*gen->ws, job.recover_path);
    }
    if (gen->index == nullptr) {
      UsiBuilder builder(*gen->ws, build_options);
      gen->index = builder.Build();
    }
  } catch (const std::bad_alloc&) {
    return HandleBuildFailure(job, "out of memory (std::bad_alloc)");
  } catch (const std::exception& e) {
    return HandleBuildFailure(job, e.what());
  } catch (...) {
    return HandleBuildFailure(job, "unknown exception");
  }
  WrapGeneration(*gen);
  Publish(entry, std::move(gen), &job);
  return true;
}

void UsiMultiService::WrapGeneration(Generation& gen) const {
  UsiServiceOptions service_options;
  service_options.min_shard_size = options_.min_shard_size;
  gen.service =
      std::make_unique<UsiService>(*gen.index, pool_, service_options);
}

void UsiMultiService::Publish(TextEntry& entry,
                              std::shared_ptr<Generation> gen,
                              const BuildJob* job) {
  const bool compaction = job != nullptr && job->compaction;
  bool published = false;
  BuildJob next;  // The follow-up fold, when this one left enough behind.
  {
    std::lock_guard<std::mutex> lock(entry.mu);
    Timer publish_timer;  // Measures the lock hold appenders/pinners see.
    ++entry.completed;
    if (job != nullptr) entry.building = false;
    if (compaction) entry.compaction_scheduled = false;
    // Monotonic publish: a stale build can never clobber a newer
    // generation (an in-flight rebuild that claimed a higher number
    // supersedes a mapped registration, never the other way round).
    // Readers that pinned the previous generation keep it alive until
    // their batch completes; the store reclaims nothing. A text
    // unregistered mid-build skips the publish entirely (the generation
    // would be unreachable — it is reclaimed right here).
    //
    // Epoch gate: a compaction's base indexes a snapshot of the overlay
    // lineage recorded at schedule time. If the live overlay was dropped or
    // replaced since (UpdateText, a poisoned append), it extends DIFFERENT
    // content, and merging it over this base would double-count the
    // positions both cover. The superseding build publishes instead.
    published = !entry.removed && gen->number > entry.published &&
                (!compaction || (entry.delta != nullptr &&
                                 entry.delta->epoch() == job->compact_epoch));
    if (published) {
      // Fold: the new base covers [0, ns). Appends that landed during the
      // build (the entry lock excludes appenders NOW, so the count is
      // exact) replay into a successor overlay warm-started over the new
      // base; none pending means no overlay at all. A full rebuild instead
      // replaces content wholesale: an overlay created against the
      // outgoing base (appends raced the rebuild) describes text this
      // generation supersedes, and the last reference releases it.
      if (!compaction ||
          entry.delta->TotalSizeLocked() == job->compact_boundary) {
        entry.DropDeltaLocked();
      } else {
        const index_t ns = job->compact_boundary;
        bool warm = !USI_FAILPOINT_FIRED("compact.warmstart");
        try {
          if (warm) {
            auto successor = std::make_shared<DeltaOverlay>(
                gen->ws, options_.delta_context, ++entry.delta_epoch,
                gen->index->utility_kind());
            successor->AppendFrom(*entry.delta, ns,
                                  entry.delta->TotalSizeLocked() - ns);
            entry.delta = std::move(successor);
          }
        } catch (...) {
          warm = false;
        }
        // Containment fallback: keep the old overlay, move its boundary to
        // the new base's edge. Still exact — the old window's content is a
        // prefix slice of the new base — just wider than needed; the next
        // successful warm start reclaims the memory.
        if (!warm) entry.delta->Rebase(ns);
      }
      entry.published = gen->number;
      entry.current = std::move(gen);
      entry.last_failed = false;
      if (compaction) {
        ++entry.compactions;
        entry.compact_publish_ns =
            static_cast<u64>(publish_timer.ElapsedSeconds() * 1e9);
      }
    }
    // Appends that raced this fold may leave the overlay past the threshold.
    // AppendText's decision is taken here too, in the critical section that
    // counts this build completed, so no waiter returns between the two.
    if (compaction) TakeCompactionLocked(job->entry, &next);
  }
  // New content is now what readers pin. The schedule-time clear could not
  // stop readers still serving the outgoing generation from re-teaching the
  // tier its answers; this one retires them (and bumps the epoch, so groups
  // pinned before the publish cannot record after it). A compaction folds
  // the same content into a new base, so its answers stay valid.
  if (published && !compaction && entry.tier != nullptr) entry.tier->Clear();
  entry.cv.notify_all();
  if (published && compaction) {
    compactions_.fetch_add(1, std::memory_order_relaxed);
  }
  // Before the lane counts this build completed: WaitForBuilds likewise.
  if (next.entry != nullptr) ScheduleBuild(std::move(next));
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
  // Re-read on every wake: a completing fold may schedule the next one.
  entry->cv.wait(lock, [&] { return entry->completed >= entry->scheduled; });
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
  build_cv_.wait(lock, [&] { return builds_completed_ >= builds_scheduled_; });
}

ServeStatus UsiMultiService::QueryBatchInto(
    std::span<const MultiQuery> queries, std::span<QueryResult> results,
    const MultiBatchOptions& batch_options) {
  if (results.size() < queries.size()) return ServeStatus::kInvalidArgument;
  if (queries.empty()) return ServeStatus::kOk;
  // One BatchScratch per thread: a thread runs at most one QueryBatchInto
  // at a time (no stage re-enters it), so it needs no lock and keeps its
  // warm buffers across generation publishes.
  thread_local BatchScratch batch;
  UnpinGuard unpin{batch};
  batch.queries = queries;
  batch.results = results;
  batch.degrade =
      batch_options.allow_degraded && options_.enable_degraded_tier;
  if (!Route(batch)) return ServeStatus::kUnknownText;
  AdmissionCharge charge(*this);
  const ServeStatus admitted = Admit(batch, charge);
  if (admitted != ServeStatus::kOk && !batch.degrade) {
    (admitted == ServeStatus::kBusy ? busy_rejected_ : overload_rejected_)
        .fetch_add(1, std::memory_order_relaxed);
    return admitted;
  }
  // A shed degraded batch skips pin and serve: all its slots are unanswered.
  if (admitted == ServeStatus::kOk) {
    const ServeStatus pinned = Pin(batch);
    if (pinned != ServeStatus::kOk) return pinned;
    Serve(batch, batch_options.deadline);
  }
  FillUnanswered(batch);
  Record(batch);
  return Account(batch, admitted);
}

bool UsiMultiService::Route(BatchScratch& batch) {
  batch.expired = false;
  batch.tier_answers = 0;
  BatchScratch::Group* group = nullptr;
  for (std::size_t i = 0; i < batch.queries.size(); ++i) {
    const MultiQuery& q = batch.queries[i];
    if (group == nullptr || q.text_id != group->entry->id) {
      group = nullptr;
      for (std::size_t k = 0; k < batch.used; ++k) {
        if (batch.groups[k].entry->id == q.text_id) {
          group = &batch.groups[k];
          break;
        }
      }
      if (group == nullptr) {
        EntryPtr entry = FindEntry(q.text_id);
        if (entry == nullptr) return false;
        if (batch.used == batch.groups.size()) batch.groups.emplace_back();
        group = &batch.groups[batch.used++];
        group->entry = std::move(entry);
        group->indices.clear();
        group->bytes = 0;
        group->reached = false;
        group->status = ServeStatus::kNotReady;
        group->stats = {};
      }
    }
    group->indices.push_back(static_cast<u32>(i));
    group->bytes += q.pattern.size_bytes();
  }
  return true;
}

ServeStatus UsiMultiService::Admit(const BatchScratch& batch,
                                   AdmissionCharge& charge) {
  // Both caps are counters, not queues: overload is shed immediately
  // instead of building an unbounded backlog. The batch gauge is charged
  // even when uncapped, because cost calibration reads it as the
  // concurrency level.
  if (!TryCharge(inflight_batches_, 1, options_.max_inflight_batches)) {
    return ServeStatus::kBusy;
  }
  charge.batch = true;
  const u64 cost_cap_ns =
      static_cast<u64>(options_.max_inflight_cost_ms * 1e6);
  if (cost_cap_ns == 0) return ServeStatus::kOk;
  // Price each routed group's bytes at its text's calibrated ns per byte.
  double estimate = 0;
  for (std::size_t k = 0; k < batch.used; ++k) {
    const BatchScratch::Group& group = batch.groups[k];
    estimate += static_cast<double>(group.bytes) *
                group.entry->CostNsPerByte(kCostPriorNsPerByte);
  }
  const u64 cost_ns = static_cast<u64>(estimate);
  if (!TryCharge(inflight_cost_ns_, cost_ns, cost_cap_ns)) {
    charge.Release();
    return ServeStatus::kOverloaded;
  }
  charge.cost_ns = cost_ns;
  return ServeStatus::kOk;
}

ServeStatus UsiMultiService::Pin(BatchScratch& batch) {
  // One pin per text for the whole batch: every query of a text is answered
  // from the same (generation, overlay) snapshot, whatever the build lane
  // does meanwhile.
  for (std::size_t k = 0; k < batch.used; ++k) {
    BatchScratch::Group& group = batch.groups[k];
    // Epoch first, pin second: every content change (rebuild publish,
    // append) clears the tier only after it has swapped under the entry
    // lock. If this pin came before the swap, the epoch read before the
    // pin is older than that clear, so the group's records are dropped.
    group.tier_epoch =
        group.entry->tier != nullptr ? group.entry->tier->epoch() : 0;
    // An id unregistered after routing is as unknown as one never
    // registered, degraded opt-in or not.
    if (!group.entry->PinServing(&group.gen, &group.delta)) {
      return ServeStatus::kUnknownText;
    }
    // A degraded-opt-in batch admits a generation-less text (first build
    // pending, or quarantined while the build lane retries): the fill
    // stage answers that group from its tier.
    if (group.gen == nullptr && !batch.degrade) return ServeStatus::kNotReady;
  }
  return ServeStatus::kOk;
}

void UsiMultiService::Serve(
    BatchScratch& batch,
    std::optional<std::chrono::steady_clock::time_point> deadline) {
  batch.patterns.resize(
      std::max(batch.patterns.size(), batch.queries.size()));
  batch.staged.resize(batch.patterns.size());
  UsiBatchOptions sub_options;
  sub_options.deadline = deadline;
  std::size_t offset = 0;  // Each group's staging range follows the last.
  for (std::size_t k = 0; k < batch.used && !batch.expired; ++k) {
    // The deadline checkpoint sits between groups (and, through
    // sub_options, between shards inside each group). Groups past it stay
    // unreached.
    if (deadline.has_value() && std::chrono::steady_clock::now() >= *deadline) {
      batch.expired = true;
      return;
    }
    BatchScratch::Group& group = batch.groups[k];
    const std::size_t n = group.indices.size();
    group.reached = true;
    group.offset = offset;
    offset += n;
    if (group.gen == nullptr) continue;
    const auto patterns = std::span(batch.patterns).subspan(group.offset, n);
    const auto answers = std::span(batch.staged).subspan(group.offset, n);
    for (std::size_t j = 0; j < n; ++j) {
      patterns[j] = batch.queries[group.indices[j]].pattern;
    }
    group.status = group.gen->service->QueryBatchInto(
        patterns, answers, &group.stats, sub_options);
    // Update-tier merge: the pinned base answered occurrences ending inside
    // its own prefix; the pinned overlay answers those ending past it.
    // Every slot the base answered merges, whatever the group status; one
    // read lock spans the group, so all of them see the same append
    // snapshot. Taken after the entry lock was released (pinning): the
    // service-wide lock order.
    if (group.delta != nullptr) {
      auto read = group.delta->LockForRead();
      if (group.delta->AppendedLocked() > 0) {
        const GlobalUtilityKind kind = group.gen->index->utility_kind();
        for (std::size_t j = 0; j < n; ++j) {
          if (answers[j].provenance != AnswerProvenance::kExact) continue;
          const QueryResult cross = group.delta->QueryCrossingLocked(
              patterns[j], batch.delta_scratch);
          if (cross.occurrences > 0) {
            answers[j] = MergeQueryResults(answers[j], cross, kind);
            // The table's precomputed answer covered the base only.
            answers[j].from_hash_table = false;
          }
        }
      }
    }
    for (std::size_t j = 0; j < n; ++j) {
      batch.results[group.indices[j]] = answers[j];
    }
    if (group.status == ServeStatus::kIndexUnavailable &&
        !group.gen->source_path.empty()) {
      DemoteFaulted(group.entry, group.gen);
    }
    batch.expired = group.status == ServeStatus::kDeadlineExceeded;
  }
}

void UsiMultiService::DemoteFaulted(
    const EntryPtr& entry, const std::shared_ptr<const Generation>& gen) {
  BuildJob recovery;
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    // Only the first batch to observe the fault demotes (the pointer
    // compare); concurrent failures of the same generation are no-ops.
    if (entry->current != gen) return;
    entry->current = nullptr;
    // The overlay extends the demoted base; the recovery build re-indexes
    // the base content alone, so pending appends are dropped with the
    // mapping that lost them.
    entry->DropDeltaLocked();
    recovery.generation = ++entry->scheduled;
  }
  recovery.entry = entry;
  recovery.ws = gen->ws;  // A pointer copy: the text is immutable.
  recovery.recover_path = gen->source_path;
  ScheduleBuild(std::move(recovery));
}

void UsiMultiService::FillUnanswered(BatchScratch& batch) {
  for (std::size_t k = 0; k < batch.used; ++k) {
    const BatchScratch::Group& group = batch.groups[k];
    if (group.status == ServeStatus::kOk) continue;
    DegradedTier* tier = batch.degrade ? group.entry->tier.get() : nullptr;
    for (const u32 idx : group.indices) {
      // A group the engine served keeps the slots it answered; the others
      // already carry kNone filler that only a tier can improve on.
      QueryResult& slot = batch.results[idx];
      if (group.status != ServeStatus::kNotReady &&
          slot.provenance != AnswerProvenance::kNone) {
        continue;
      }
      slot = UnansweredResult();
      if (tier != nullptr &&
          tier->TryAnswer(DegradedTier::KeyFor(batch.queries[idx].pattern),
                          &slot)) {
        ++batch.tier_answers;
      }
    }
  }
}

void UsiMultiService::Record(const BatchScratch& batch) {
  // Calibration charges each group its CPU share: wall time under a shared
  // pool scales with the number of concurrent batches, and saturation must
  // not inflate the calibrated ns/byte (the cost cap would then under-admit
  // against a budget expressed in unloaded serving cost).
  const u64 concurrent = std::max<u64>(
      1, inflight_batches_.load(std::memory_order_relaxed));
  for (std::size_t k = 0; k < batch.used; ++k) {
    const BatchScratch::Group& group = batch.groups[k];
    if (!group.reached) continue;
    TextEntry& entry = *group.entry;
    entry.batches.fetch_add(1, std::memory_order_relaxed);
    entry.queries.fetch_add(group.stats.answered, std::memory_order_relaxed);
    entry.hash_hits.fetch_add(group.stats.hash_hits,
                              std::memory_order_relaxed);
    if (group.status != ServeStatus::kOk) continue;
    // Feed the tier from the exact path: every served (pattern, answer)
    // pair is popularity evidence and a candidate cache/sketch entry.
    // Recording happens whether or not THIS batch opted into degraded
    // serving — learning must precede the first failure. The batch record
    // never blocks (one try_lock per chunk, drop on contention), never
    // allocates, and drops the group if its epoch went stale.
    const std::size_t n = group.indices.size();
    if (entry.tier != nullptr) {
      entry.tier->RecordExactBatch(
          std::span(batch.patterns).subspan(group.offset, n),
          std::span(batch.staged).subspan(group.offset, n), group.tier_epoch);
    }
    // Only fully-served groups feed the cost model: a partial group's
    // bytes/time ratio is not the text's.
    entry.served_bytes.fetch_add(group.bytes, std::memory_order_relaxed);
    entry.served_ns.fetch_add(
        static_cast<u64>(group.stats.seconds * 1e9) / concurrent,
        std::memory_order_relaxed);
  }
}

ServeStatus UsiMultiService::Account(const BatchScratch& batch,
                                     ServeStatus admitted) {
  if (batch.tier_answers != 0) {
    degraded_answers_.fetch_add(batch.tier_answers, std::memory_order_relaxed);
  }
  if (admitted != ServeStatus::kOk) {
    // Shedding to the tier costs microseconds and touches no engine, so it
    // holds no admission charge: the caller still gets an answer per slot
    // while the exact path stays protected.
    degraded_batches_.fetch_add(1, std::memory_order_relaxed);
    return ServeStatus::kDegraded;
  }
  std::size_t answered = 0;
  bool partial = false;  // Some group was not answered whole by its engine.
  bool unavailable = false;
  for (std::size_t k = 0; k < batch.used; ++k) {
    const BatchScratch::Group& group = batch.groups[k];
    answered += group.stats.answered;
    partial |= group.status != ServeStatus::kOk;
    unavailable |= group.status == ServeStatus::kIndexUnavailable;
  }
  batches_.fetch_add(1, std::memory_order_relaxed);
  queries_.fetch_add(answered, std::memory_order_relaxed);
  if (batch.expired) deadline_expired_.fetch_add(1, std::memory_order_relaxed);
  // Without the opt-in a fault fails the batch. With it, the faulted and
  // the generation-less groups were answered from their tiers.
  if (unavailable && !batch.degrade) {
    index_unavailable_.fetch_add(1, std::memory_order_relaxed);
    return ServeStatus::kIndexUnavailable;
  }
  if (batch.expired) return ServeStatus::kDeadlineExceeded;
  if (partial) {
    degraded_batches_.fetch_add(1, std::memory_order_relaxed);
    return ServeStatus::kDegraded;
  }
  return ServeStatus::kOk;
}

MultiBatchResult UsiMultiService::QueryBatch(
    std::span<const MultiQuery> queries) {
  MultiBatchResult out;
  out.results.resize(queries.size());
  out.status = QueryBatchInto(queries, out.results);
  // The partial statuses return every slot written (kNone filler where
  // unanswered); only the all-or-nothing rejections leave nothing worth
  // returning.
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
  std::shared_ptr<const Generation> gen;
  std::shared_ptr<DeltaOverlay> delta;
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    gen = entry->current;
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
  if (gen != nullptr) {
    stats.generation = gen->number;
    stats.last_build = gen->index->build_info();
  }
  if (delta != nullptr) stats.delta = delta->StatsSnapshot();
  stats.batches = entry->batches.load(std::memory_order_relaxed);
  stats.queries = entry->queries.load(std::memory_order_relaxed);
  stats.hash_hits = entry->hash_hits.load(std::memory_order_relaxed);
  stats.cost_ns_per_byte = entry->CostNsPerByte(0);
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
