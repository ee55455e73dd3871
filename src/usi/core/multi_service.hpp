#ifndef USI_CORE_MULTI_SERVICE_HPP_
#define USI_CORE_MULTI_SERVICE_HPP_

/// \file multi_service.hpp
/// Multi-text serving tier: one service fronting many indexes, with async
/// generational rebuilds.
///
/// UsiMultiService owns a registry of named weighted strings. Each text is
/// served through its own UsiIndex + UsiService pair, wrapped in an
/// immutable *generation*; a QueryBatch of mixed-text queries is routed by
/// text id, grouped per text, and each group is sharded across the shared
/// ThreadPool by that text's UsiService. Construction is asynchronous:
/// SubmitText / UpdateText enqueue a staged UsiBuilder run that executes on
/// the pool while queries keep draining against the previous generation.
///
/// \par Generation lifecycle (RCU-style swap)
/// Every text holds its current generation as a shared_ptr swapped under a
/// pointer-copy-scale lock (a mutex held only for the refcount increment —
/// chosen over std::atomic<std::shared_ptr> because libstdc++ implements
/// that with a lock bit ThreadSanitizer cannot model, and the TSan CI job
/// is part of this tier's contract):
///
///     SubmitText/UpdateText ──► build queue ──► build lanes 1..N (one pool
///     AppendText compactions                      │ task each, per-text claim)
///     mapped-fault recovery                       │ owned read or staged
///                                                 │ UsiBuilder
///                                                 ▼
///     readers: pin = copy of current     publish: current = new generation
///              │  (shared_ptr copy,               (monotonic by generation
///              ▼   never waits on a build)         number, under entry lock)
///     serve whole batch from the pinned generation
///              │
///              ▼
///     unpin (shared_ptr drops) — the last reader to release an old
///     generation reclaims it; writers never wait for readers.
///
/// A batch pins one generation per referenced text *once*, up front, and
/// serves every query of the batch from the pinned snapshot — so a batch
/// never observes a half-applied rebuild (answers are entirely old-text or
/// entirely new-text, pinned by the generation-swap concurrency test).
///
/// \par Build lanes
/// Rebuild jobs run FIFO through a width-configurable *build-lane
/// executor*: up to UsiMultiServiceOptions::build_lanes pool workers
/// (default 1) drain the queue concurrently, with a per-text claim so two
/// lanes never build the same text at once — N texts build in parallel,
/// each text's generations stay strictly sequential. On a pool of W >
/// lanes threads query fan-out keeps W - lanes workers; on W == 1 queries
/// are served inline on the caller's thread while the lone worker builds.
/// Each job runs the staged UsiBuilder sequentially (a build inside a pool
/// task must not ParallelFor on the same pool); the trade — per-build
/// parallelism for serving isolation — is the "async construction" item of
/// the ROADMAP. Without a pool (injected null), builds run synchronously
/// inside SubmitText/UpdateText.
///
/// \par Update tier (appends without rebuilds)
/// AppendText extends a text past its published generation without paying
/// a rebuild: appends land in a per-text DeltaOverlay (update_tier.hpp),
/// which copies a bounded tail window of the base, appends past it, and
/// indexes both with its own suffix tree and prefix sums; batches pin the
/// (generation, overlay) pair together — the base answers occurrences
/// ending inside [0, n0), the overlay answers those ending past n0, and
/// the two halves merge exactly (MergeQueryResults). Once the overlay
/// crosses delta_compact_threshold appended symbols, a *compaction* build
/// is scheduled through the build lanes: the merged content is indexed as
/// a normal generation, and at publish the successor overlay is
/// warm-started from the old one (only appends that landed during the
/// build replay; the window reseeds from the new base). When those raced
/// appends already fill the successor past the threshold, the publish
/// schedules the next fold itself, so a text that goes quiet never stays
/// over it. A compaction whose build fails quarantines like any other
/// build — the old base keeps serving and the overlay keeps absorbing
/// appends. SubmitText/UpdateText replace content wholesale and therefore
/// drop the overlay.
///
/// \par Serving pipeline
/// QueryBatchInto runs one batch through named stages: *route* (look up
/// each distinct text id once and group the queries per text, so an
/// unknown id rejects the whole batch before anything is charged),
/// *admit*, *pin* (one (generation, overlay) snapshot per text), *serve*
/// (each group through its generation's UsiService, then the overlay merge
/// into every exact slot), *fill* (slots no engine answered), *record*
/// (per-text telemetry and the tier learning from fully served groups) and
/// *account* (service-wide counters and the batch status).
///
/// \par Admission control
/// Two caps, both counters rather than queues, so overload sheds load
/// instead of growing an unbounded backlog. Both are checked after routing
/// and before any generation is pinned, by one rule: a batch is charged
/// and admitted while what was already in flight is under the cap.
///  * max_inflight_batches bounds the number of concurrently executing
///    QueryBatch calls; a batch over it returns ServeStatus::kBusy (counted
///    in stats().busy_rejected).
///  * max_inflight_cost_ms bounds the estimated serving cost of all
///    in-flight batches, priced per routed text from calibrated
///    ns-per-pattern-byte telemetry; a batch over it returns kOverloaded
///    (counted in stats().overload_rejected). A lone batch always admits.
///
/// \par Graceful degradation
/// Every registered text carries a DegradedTier (core/degraded_tier.hpp)
/// that records exact answers as they are served, one batch record per
/// fully served group. Content changes clear it (at schedule time, after
/// every append, and again when the new generation publishes), and each
/// group records under the tier epoch it read before pinning, so answers
/// about replaced content are never learned. Slots no engine answered are
/// kNone filler: a shed batch, a text with no servable generation, a group
/// past the deadline, and the slots a faulted or expired group did not
/// reach. A batch that opts in (MultiBatchOptions::allow_degraded) instead
/// gets every such slot answered from its text's tier, while the slots the
/// engine did answer stay exact. Such batches return ServeStatus::kDegraded
/// (or keep kDeadlineExceeded) with per-result provenance and error bounds.
///
/// \par Thread safety
/// All public members are safe to call concurrently. QueryBatch never
/// blocks on builds (it reads the pinned generation); registry mutations
/// (SubmitText/UpdateText/UnregisterText) take the registry lock briefly
/// and never wait for in-flight batches. The destructor waits for pending
/// builds to finish draining.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "usi/core/degraded_tier.hpp"
#include "usi/core/update_tier.hpp"
#include "usi/core/usi_index.hpp"
#include "usi/core/usi_service.hpp"
#include "usi/text/weighted_string.hpp"

namespace usi {

class ThreadPool;

/// One routed query: which text to ask, and the pattern. The referenced
/// storage is borrowed for the duration of the QueryBatch call.
/// (ServeStatus — the shared status taxonomy — lives in usi_service.hpp.)
struct MultiQuery {
  std::string_view text_id;
  std::span<const Symbol> pattern;
};

/// Lifecycle of a text's index builds. Terminal states are kReady and
/// kFailed; WaitForText returns one of them (or kUnknown) instead of
/// hanging on a quarantined text.
enum class BuildState : u8 {
  kUnknown = 0,  ///< No such text registered.
  kPending,      ///< A build is queued but has not started.
  kBuilding,     ///< The build lane is running (or retrying) a build.
  kReady,        ///< The latest scheduled build published its generation.
  kFailed,       ///< The latest build failed terminally (retries exhausted);
                 ///< the previous generation, if any, keeps serving.
};

/// Display name of a BuildState ("unknown", "pending", ...).
const char* BuildStateName(BuildState state);

/// Tuning for UsiMultiService.
struct UsiMultiServiceOptions {
  /// Shared pool width: 0 = hardware concurrency. The pool serves query
  /// fan-out and the build lane; width 1 still gives async builds (queries
  /// are then served inline on caller threads).
  unsigned threads = 0;
  /// Per-text shard-size floor, forwarded to each generation's UsiService.
  std::size_t min_shard_size = 16;
  /// Admission control: max concurrently executing QueryBatch calls.
  /// 0 = unbounded. Batches over the cap return ServeStatus::kBusy.
  std::size_t max_inflight_batches = 0;
  /// Cost-aware admission: cap on the estimated cost (in milliseconds of
  /// serving work) of all in-flight batches. 0 = off. A batch whose
  /// estimated cost would push the in-flight total over the cap is rejected
  /// with kOverloaded — unless nothing is in flight, so a lone expensive
  /// batch always serves. Cost is estimated from per-text ns-per-pattern-byte
  /// telemetry calibrated by served batches (a fixed 50 ns/byte prior until
  /// a text has served enough bytes).
  double max_inflight_cost_ms = 0;
  /// Build-lane failure containment: how many times a failed build is
  /// retried (with capped exponential backoff) before the text is
  /// quarantined as BuildState::kFailed.
  unsigned max_build_retries = 2;
  /// Base backoff before the first retry; doubles per attempt, capped at
  /// 16x. Kept small by default so test suites and shutdown stay fast.
  unsigned build_retry_backoff_ms = 10;
  /// Build options applied when SubmitText is called without explicit
  /// options. threads is overridden to 1 inside the build lane.
  UsiOptions default_build = {};
  /// Width of the build-lane executor: how many texts may build
  /// concurrently (each text's generations stay sequential via a per-text
  /// claim). Clamped to >= 1. Lanes occupy pool workers while building, so
  /// keep lanes < pool width when serving latency matters.
  unsigned build_lanes = 1;
  /// Update tier: appended symbols a text's delta overlay may hold before a
  /// background compaction folds it into a new base generation. 0 disables
  /// automatic compaction (the overlay grows until the next full rebuild).
  index_t delta_compact_threshold = 4096;
  /// Update tier: tail-window length each overlay seeds from its base. Any
  /// pattern with m - 1 <= delta_context takes the indexed window path; a
  /// longer pattern falls back to a verify-and-sum scan of its O(m +
  /// appended) crossing candidates.
  index_t delta_context = 512;
  /// Graceful degradation: every registered text carries a DegradedTier
  /// that observes exact answers and serves bounded-error ones on the
  /// degraded paths (see MultiBatchOptions::allow_degraded). Disabling
  /// removes the per-text memory cost and makes allow_degraded a no-op
  /// (batches fail with the PR 8 statuses instead).
  bool enable_degraded_tier = true;
  /// Per-text tier geometry (cache capacity, sketch width/depth, ...).
  DegradedTierOptions degraded = {};
};

/// Per-batch knobs for UsiMultiService::QueryBatchInto.
struct MultiBatchOptions {
  /// Cooperative deadline, checked between per-text groups and threaded
  /// into each group's UsiService (between shards) and engine (between
  /// batch stages). Expired batches return kDeadlineExceeded with partial
  /// results. nullopt = no deadline.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Opt-in to the degradation ladder (exact -> hot-pattern cache -> sketch
  /// estimate -> none): instead of rejecting, an overloaded/busy batch, a
  /// text with no servable generation (quarantined build lane) or a group
  /// that lost its index mid-serve is answered from the text's DegradedTier
  /// and the batch returns kDegraded with every slot written — slots the
  /// engine answered stay exact, the rest carry tier answers tagged with
  /// their provenance and error bound (QueryResult::provenance /
  /// error_bound). A deadline-expired batch likewise fills its *unreached*
  /// slots from the tier (status stays kDeadlineExceeded; provenance says
  /// which slots are tier answers). Off by default: callers that cannot
  /// consume approximate answers keep the PR 8 fail-clean behavior.
  bool allow_degraded = false;
};

/// Per-text lifetime telemetry, aggregated across generations.
struct UsiTextStats {
  u64 generation = 0;        ///< Generation currently served (0 = none yet).
  u64 builds_scheduled = 0;  ///< SubmitText/UpdateText calls for this text.
  u64 builds_completed = 0;
  u64 builds_failed = 0;     ///< Terminal build failures (quarantines).
  u64 build_retries = 0;     ///< Failed attempts that were retried.
  u64 batches = 0;    ///< Batches that touched this text.
  u64 queries = 0;    ///< Queries routed to this text.
  u64 hash_hits = 0;  ///< Of those, answered from the precomputed table.
  u64 appends = 0;       ///< AppendText calls absorbed by the update tier.
  u64 compactions = 0;   ///< Delta-folding generation publishes.
  /// Wall time the most recent compaction publish held the entry lock (the
  /// pause appenders/pinners can observe); 0 before the first compaction.
  u64 compact_publish_ns = 0;
  /// Update-tier overlay telemetry; nullopt when the text has no live
  /// overlay (never appended, or compacted away with nothing pending).
  std::optional<DeltaOverlayStats> delta;
  BuildState build_state = BuildState::kUnknown;
  std::string last_build_error;  ///< Cause of the last build failure.
  /// Calibrated serving cost (ns per pattern byte); 0 until this text has
  /// served enough bytes to calibrate. Feeds cost-aware admission.
  double cost_ns_per_byte = 0;
  UsiBuildInfo last_build;  ///< build_info() of the served generation.
  /// Degraded-tier telemetry (cache occupancy/hit rate, sketch geometry and
  /// mass); nullopt when the tier is disabled service-wide.
  std::optional<DegradedTierStats> degraded;
};

/// Service-wide telemetry.
struct UsiMultiStats {
  u64 batches = 0;         ///< Batches admitted (served to completion or
                           ///< partially — kOk/kDeadlineExceeded/
                           ///< kIndexUnavailable).
  u64 queries = 0;
  u64 busy_rejected = 0;   ///< Batches shed by the in-flight count cap.
  u64 overload_rejected = 0;  ///< Batches shed by cost-aware admission.
  u64 deadline_expired = 0;   ///< Batches that hit their deadline.
  u64 index_unavailable = 0;  ///< Batches that lost an index mid-serve.
  u64 builds_scheduled = 0;
  u64 builds_completed = 0;
  u64 builds_failed = 0;      ///< Terminal build failures (quarantines).
  std::size_t texts = 0;   ///< Registered texts right now.
  u64 appends = 0;      ///< AppendText calls absorbed service-wide.
  u64 compactions = 0;  ///< Delta compactions published service-wide.
  u64 degraded_batches = 0;  ///< Batches that returned kDegraded.
  /// Individual queries answered by a tier rung (cache or sketch) instead
  /// of an exact index; kNone filler slots are not counted.
  u64 degraded_answers = 0;
};

/// Convenience return form of QueryBatch.
struct MultiBatchResult {
  ServeStatus status = ServeStatus::kOk;
  /// Populated on kOk and on the partial statuses (kDeadlineExceeded /
  /// kIndexUnavailable / kDegraded — unanswered slots are kNone filler or
  /// provenance-tagged tier answers); cleared on the all-or-nothing
  /// rejections.
  std::vector<QueryResult> results;
};

/// One service fronting many named texts, each with asynchronously rebuilt
/// index generations.
class UsiMultiService {
 public:
  /// The service owns its pool, sized per \p options.
  explicit UsiMultiService(const UsiMultiServiceOptions& options = {});

  /// As above but sharing \p pool (borrowed, must outlive the service;
  /// null = no pool: queries serve inline, builds run synchronously).
  UsiMultiService(ThreadPool* pool, const UsiMultiServiceOptions& options = {});

  /// Waits for pending builds, then tears down.
  ~UsiMultiService();

  UsiMultiService(const UsiMultiService&) = delete;
  UsiMultiService& operator=(const UsiMultiService&) = delete;

  /// Registers (or, if \p id exists, replaces — upsert) a text and schedules
  /// an asynchronous index build with \p build_options. Queries against \p id
  /// keep draining from the previous generation until the new one is
  /// published; a brand-new text serves kNotReady until its first build
  /// lands. Returns the scheduled generation number (monotonic per text,
  /// starting at 1), or 0 when a weight is not finite (NaN, ±inf) — then
  /// nothing is registered or changed.
  u64 SubmitText(std::string_view id, WeightedString ws,
                 const UsiOptions& build_options);

  /// As above with options_.default_build.
  u64 SubmitText(std::string_view id, WeightedString ws);

  /// Instant-start registration: opens a kV3Mapped index file for \p ws by
  /// mmap (UsiIndex::OpenMapped — header validation + pointer fixup, no
  /// build, no O(n) deserialization) and publishes it as \p id's next
  /// generation immediately. The registered text serves queries as soon as
  /// this returns; the kernel demand-pages the index as queries touch it.
  /// Upserts like SubmitText, so it also swaps a mapped generation under an
  /// id that is currently serving built ones (and vice versa — a later
  /// UpdateText rebuild supersedes the mapped generation normally).
  /// Returns the published generation number, or 0 if the file cannot be
  /// opened (missing, corrupt, or built over a text of different length) —
  /// in which case the registry is left untouched. Unlike SubmitText, the
  /// weights are not scanned for NaN/±inf: that O(n) pass would dominate
  /// an O(1) registration, and the image carries its own prefix sums.
  u64 RegisterTextFromFile(std::string_view id, WeightedString ws,
                           const std::string& path);

  /// Schedules a rebuild of an existing text with new content, reusing the
  /// text's build options (see SetBuildOptions). Returns the scheduled
  /// generation number, or 0 if \p id is not registered or a weight is not
  /// finite (nothing changes). Replacing content supersedes the update
  /// tier: a live delta overlay is dropped with its appends.
  u64 UpdateText(std::string_view id, WeightedString ws);

  /// Replaces \p id's build options without scheduling anything: later
  /// rebuilds and compactions use them. Apart from a SubmitText upsert,
  /// the one way to re-option a registered text. Returns false when \p id
  /// is not registered.
  bool SetBuildOptions(std::string_view id, const UsiOptions& build_options);

  /// Appends \p text / \p weights (equal length) past \p id's published
  /// content — the update tier: the appended positions are visible to
  /// queries as soon as this returns (exact merged answers, no rebuild),
  /// and a background compaction folds them into a new base generation
  /// once the per-text overlay crosses delta_compact_threshold. The whole
  /// span lands atomically: a concurrent batch sees all of it or none.
  /// Returns kOk (an empty span changes nothing: no overlay, no count, no
  /// tier clear); kInvalidArgument when the lengths differ or a weight is
  /// not finite (NaN, ±inf; nothing changes); kUnknownText when \p id is
  /// not registered; kNotReady before the first generation has published
  /// (appends extend a published base); kIndexUnavailable when the append
  /// was rejected (armed `delta.append` failpoint, or an allocation
  /// failure — in the latter case pending uncompacted appends are dropped
  /// with the overlay).
  ServeStatus AppendText(std::string_view id, std::span<const Symbol> text,
                         std::span<const double> weights);

  /// Unregisters \p id, RCU-style: the registry entry is removed
  /// immediately (new batches answer kUnknownText), in-flight batches that
  /// already pinned a generation finish against it unharmed (their
  /// shared_ptrs keep entry and generation alive; the last reader
  /// reclaims), queued-but-not-started builds for the text are dropped from
  /// the build lane (their completion is accounted, so WaitForBuilds and a
  /// blocked WaitForText never hang), and a build currently running skips
  /// its publish. Returns false if \p id is not registered. A long-lived
  /// server that registers texts dynamically must unregister them too —
  /// before this existed the registry grew forever.
  bool UnregisterText(std::string_view id);

  /// Whether \p id is registered (its first build may still be pending).
  bool HasText(std::string_view id) const;

  /// Registered ids, sorted.
  std::vector<std::string> TextIds() const;

  /// Blocks until no build for \p id is queued or running, then reports
  /// the latest one: kReady when it published, kFailed when it was
  /// quarantined (retries exhausted — the text keeps serving its previous
  /// generation, if any), kUnknown when \p id is not registered. Builds
  /// scheduled while waiting count too, so a compaction publish that
  /// schedules the next fold is waited for. Never hangs on a failed build.
  BuildState WaitForText(std::string_view id);

  /// Build-lane state of \p id right now, without waiting.
  BuildState TextState(std::string_view id) const;

  /// Blocks until no build (any text) is queued or running, including
  /// builds scheduled while waiting (the next fold of a compaction).
  void WaitForBuilds();

  /// Answers queries[i] into results[i]. Routes by text id, admits, pins
  /// one generation per referenced text for the whole batch, then serves
  /// each per-text group through that generation's UsiService (sharded
  /// across the shared pool). On the all-or-nothing statuses — checked in
  /// this order: kInvalidArgument (results.size() < queries.size()),
  /// kUnknownText, kBusy / kOverloaded, kNotReady — no query executes and
  /// results are untouched; the partial statuses (kDeadlineExceeded /
  /// kIndexUnavailable / kDegraded) return with every result slot written —
  /// unanswered queries carry kNone filler. With
  /// batch_options.allow_degraded, the rejecting statuses other than
  /// kInvalidArgument and kUnknownText are replaced by degraded serving
  /// from the per-text tier (see MultiBatchOptions::allow_degraded).
  ServeStatus QueryBatchInto(std::span<const MultiQuery> queries,
                             std::span<QueryResult> results,
                             const MultiBatchOptions& batch_options = {});

  /// As QueryBatchInto, returning owned results.
  MultiBatchResult QueryBatch(std::span<const MultiQuery> queries);

  /// Single-query convenience (a batch of one).
  ServeStatus Query(std::string_view text_id, std::span<const Symbol> pattern,
                    QueryResult& result);

  /// Lifetime telemetry for one text; nullopt if \p id is not registered.
  std::optional<UsiTextStats> StatsFor(std::string_view id) const;

  /// Service-wide telemetry.
  UsiMultiStats stats() const;

  /// Worker threads of the shared pool (1 = no pool / inline serving).
  unsigned threads() const;

 private:
  struct Generation;
  struct TextEntry;
  struct BuildJob;
  struct BatchScratch;
  struct UnpinGuard;
  struct AdmissionCharge;

  using EntryPtr = std::shared_ptr<TextEntry>;

  /// Registry lookup (registry lock taken inside).
  EntryPtr FindEntry(std::string_view id) const;

  /// Registry upsert: returns the entry for \p id, creating it if absent
  /// (registry lock taken inside).
  EntryPtr EnsureEntry(std::string_view id);

  /// Shared body of SubmitText and UpdateText: begins the replacement and
  /// schedules the build of \p ws. Returns the scheduled generation.
  u64 ReplaceText(EntryPtr entry, WeightedString ws);

  /// Starts a full-content replacement: claims the next generation number,
  /// drops the update-tier overlay and clears the tier. Returns the number.
  u64 BeginReplacement(TextEntry& entry);

  /// AppendText's and the compaction publish's one "fold now?" decision:
  /// when \p entry's overlay holds delta_compact_threshold appended symbols
  /// and no compaction is in flight, fills \p job with a compaction of a
  /// snapshot and marks it in flight; else leaves \p job untouched. Caller
  /// holds entry->mu and schedules \p job after releasing it.
  void TakeCompactionLocked(const EntryPtr& entry, BuildJob* job);

  /// Registers \p job in the build queue and wakes the build lanes (or,
  /// with no pool, builds synchronously — including synchronous retries).
  void ScheduleBuild(BuildJob job);

  /// Body of one build-lane pool task: claims ready jobs whose text no
  /// other lane holds, runs them (delayed retry jobs wait out their
  /// backoff), and retires when the queue drains.
  void BuildLane();

  /// Runs one build attempt and publishes on success (monotonic swap).
  /// Returns true when the job reached a terminal state (published or
  /// quarantined); false when it failed and was re-armed for retry — the
  /// caller requeues it (build lane) or sleeps and retries (no-pool path).
  bool BuildOne(BuildJob& job);

  /// Makes a generation whose index is in place servable: its UsiService
  /// over the shared pool.
  void WrapGeneration(Generation& gen) const;

  /// The one publish path, for lane builds (\p job) and file
  /// registrations (\p job null): accounts the completed build and swaps
  /// \p gen in unless a newer generation, the text's removal or (for a
  /// compaction) a replaced overlay supersedes it.
  void Publish(TextEntry& entry, std::shared_ptr<Generation> gen,
               const BuildJob* job);

  /// Failure bookkeeping for BuildOne: re-arms \p job with backoff and
  /// returns false while retries remain, else quarantines the text
  /// (BuildState::kFailed) and returns true.
  bool HandleBuildFailure(BuildJob& job, const std::string& what);

  // QueryBatchInto's stages, in order (see "Serving pipeline" above).

  /// Groups the queries per text. False when an id is not registered.
  bool Route(BatchScratch& batch);
  /// Charges the batch against both caps: kOk, kBusy or kOverloaded.
  ServeStatus Admit(const BatchScratch& batch, AdmissionCharge& charge);
  /// Pins each group's snapshot: kOk; kUnknownText when a text was
  /// unregistered since routing; kNotReady when a text has no generation
  /// and the batch may not degrade.
  ServeStatus Pin(BatchScratch& batch);
  /// Serves the groups in order until \p deadline.
  void Serve(BatchScratch& batch,
             std::optional<std::chrono::steady_clock::time_point> deadline);
  /// Gives every slot no engine answered a tier answer (degraded batches)
  /// or kNone filler.
  void FillUnanswered(BatchScratch& batch);
  /// Per-text counters, tier learning and cost calibration.
  void Record(const BatchScratch& batch);
  /// Service-wide counters; returns the batch status (\p admitted is
  /// Admit's verdict: not kOk means the degraded batch was shed).
  ServeStatus Account(const BatchScratch& batch, ServeStatus admitted);

  /// Demotes a mapped generation that faulted mid-serve and schedules its
  /// recovery (owned read of the source file, rebuild otherwise).
  void DemoteFaulted(const EntryPtr& entry,
                     const std::shared_ptr<const Generation>& gen);

  ThreadPool* pool_ = nullptr;  ///< Borrowed, may be null.
  std::unique_ptr<ThreadPool> owned_pool_;
  UsiMultiServiceOptions options_;

  mutable std::mutex registry_mu_;  ///< Guards registry_.
  std::map<std::string, EntryPtr, std::less<>> registry_;

  mutable std::mutex build_mu_;  ///< Guards the four members below (and
                                 ///< every TextEntry's lane_claimed flag).
  std::deque<BuildJob> build_queue_;
  unsigned build_lanes_active_ = 0;  ///< Lane tasks currently running.
  u64 builds_scheduled_ = 0;
  u64 builds_completed_ = 0;
  std::condition_variable build_cv_;  ///< Signals build completions.

  std::atomic<u64> inflight_batches_{0};
  std::atomic<u64> batches_{0};
  std::atomic<u64> queries_{0};
  std::atomic<u64> busy_rejected_{0};
  /// Cost-aware admission: estimated serving cost (ns) of all in-flight
  /// batches; compared against options_.max_inflight_cost_ms.
  std::atomic<u64> inflight_cost_ns_{0};
  std::atomic<u64> overload_rejected_{0};
  std::atomic<u64> deadline_expired_{0};
  std::atomic<u64> index_unavailable_{0};
  std::atomic<u64> builds_failed_{0};
  std::atomic<u64> appends_{0};
  std::atomic<u64> compactions_{0};
  std::atomic<u64> degraded_batches_{0};
  std::atomic<u64> degraded_answers_{0};
};

}  // namespace usi

#endif  // USI_CORE_MULTI_SERVICE_HPP_
