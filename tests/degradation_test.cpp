// Degradation ladder (exact -> hot-pattern cache -> sketch estimate ->
// none) at the serving tier, plus UnregisterText lifecycle. The chaos cases
// drive the ladder with armed failpoints (quarantined build lanes, mapped
// faults, overload) and check *differentially* against a direct exact
// index: every degraded answer must carry honest provenance and an error
// bound the measured error respects. Every case runs in every build
// (failpoints are always compiled in), TSan included via "concurrency".

#include <atomic>
#include <chrono>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "usi/core/multi_service.hpp"
#include "usi/core/usi_index.hpp"
#include "usi/util/failpoint.hpp"

namespace usi {
namespace {

using testing::RandomWeighted;

std::vector<Text> PatternsFor(const WeightedString& ws, u64 seed,
                              int present = 48, int absent = 12) {
  Rng rng(seed);
  std::vector<Text> patterns;
  for (int i = 0; i < present; ++i) {
    const index_t start = static_cast<index_t>(rng.UniformBelow(ws.size()));
    const index_t max_len = std::min<index_t>(8, ws.size() - start);
    patterns.push_back(ws.Fragment(
        start, static_cast<index_t>(rng.UniformInRange(1, max_len))));
  }
  for (int i = 0; i < absent; ++i) {
    patterns.push_back(Text(static_cast<std::size_t>(rng.UniformInRange(1, 6)),
                            static_cast<Symbol>(200 + i)));
  }
  return patterns;
}

std::vector<QueryResult> DirectAnswers(const UsiIndex& index,
                                       const std::vector<Text>& patterns) {
  std::vector<QueryResult> want(patterns.size());
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    want[i] = index.Query(patterns[i]);
  }
  return want;
}

std::vector<MultiQuery> QueriesFor(std::string_view id,
                                   const std::vector<Text>& patterns) {
  std::vector<MultiQuery> queries;
  queries.reserve(patterns.size());
  for (const Text& p : patterns) queries.push_back({id, p});
  return queries;
}

/// The ladder's correctness contract, slot by slot, against the exact
/// oracle: kExact/kCached answers match exactly (bound 0), kApproximate
/// answers never under-shoot and over-shoot by at most their advertised
/// bound, kNone slots are zeroed fillers.
void ExpectWithinBounds(const std::vector<QueryResult>& got,
                        const std::vector<QueryResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    switch (got[i].provenance) {
      case AnswerProvenance::kExact:
      case AnswerProvenance::kCached:
        EXPECT_EQ(got[i].utility, want[i].utility) << "slot " << i;
        EXPECT_EQ(got[i].occurrences, want[i].occurrences) << "slot " << i;
        EXPECT_EQ(got[i].error_bound, 0.0) << "slot " << i;
        break;
      case AnswerProvenance::kApproximate:
        EXPECT_GE(got[i].utility, want[i].utility - 1e-9) << "slot " << i;
        EXPECT_LE(got[i].utility, want[i].utility + got[i].error_bound + 1e-9)
            << "slot " << i << ": measured error exceeds advertised bound";
        EXPECT_GE(got[i].occurrences, want[i].occurrences) << "slot " << i;
        break;
      case AnswerProvenance::kNone:
        EXPECT_EQ(got[i].utility, 0.0) << "slot " << i;
        EXPECT_EQ(got[i].occurrences, 0u) << "slot " << i;
        break;
    }
  }
}

class DegradationTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }
};

TEST_F(DegradationTest, ProvenanceNamesAreDistinct) {
  const AnswerProvenance all[] = {
      AnswerProvenance::kExact, AnswerProvenance::kCached,
      AnswerProvenance::kApproximate, AnswerProvenance::kNone};
  std::vector<std::string> names;
  for (AnswerProvenance p : all) {
    const std::string name = AnswerProvenanceName(p);
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "?");
    names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

TEST_F(DegradationTest, ExactPathTagsEveryAnswerExact) {
  UsiMultiServiceOptions options;
  options.threads = 2;
  UsiMultiService service(options);
  const WeightedString ws = RandomWeighted(2500, 8, 201);
  service.SubmitText("t", ws);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);

  const std::vector<Text> patterns = PatternsFor(ws, 202);
  const std::vector<MultiQuery> queries = QueriesFor("t", patterns);
  std::vector<QueryResult> results(queries.size());
  ASSERT_EQ(service.QueryBatchInto(queries, results), ServeStatus::kOk);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].provenance, AnswerProvenance::kExact) << i;
    EXPECT_EQ(results[i].error_bound, 0.0) << i;
  }
}

TEST_F(DegradationTest, QuarantinedTextAnswersDegradedInsteadOfNotReady) {
  UsiMultiServiceOptions options;
  options.threads = 2;
  options.max_build_retries = 0;
  UsiMultiService service(options);
  const WeightedString ws = RandomWeighted(2000, 8, 211);

  failpoint::Arm("multi.build", failpoint::Action::kThrow);
  service.SubmitText("t", ws);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kFailed);

  const std::vector<Text> patterns = PatternsFor(ws, 212);
  const std::vector<MultiQuery> queries = QueriesFor("t", patterns);
  std::vector<QueryResult> results(queries.size(), QueryResult{-1, 777});

  // Without the opt-in: the PR 8 contract, fail-clean with kNotReady.
  EXPECT_EQ(service.QueryBatchInto(queries, results),
            ServeStatus::kNotReady);
  EXPECT_EQ(results[0].occurrences, 777u) << "rejection must not touch slots";

  // With the opt-in: the batch is answered. Nothing was ever served
  // exactly, so every slot is an honest kNone filler — but the status is
  // kDegraded, not a rejection.
  MultiBatchOptions batch_options;
  batch_options.allow_degraded = true;
  EXPECT_EQ(service.QueryBatchInto(queries, results, batch_options),
            ServeStatus::kDegraded);
  for (const QueryResult& r : results) {
    EXPECT_EQ(r.provenance, AnswerProvenance::kNone);
    EXPECT_EQ(r.occurrences, 0u);
  }
  EXPECT_EQ(service.stats().degraded_batches, 1u);
}

// The acceptance scenario: a mapped text is warmed, then its backing
// mapping faults persistently AND the build lane is poisoned, so recovery
// quarantines. With allow_degraded every batch still answers — kDegraded,
// never kIndexUnavailable / kNotReady — with per-slot provenance and
// bounds the measured error respects.
TEST_F(DegradationTest, MappedFaultPlusQuarantineServesWithinBounds) {
  const WeightedString ws = RandomWeighted(3000, 8, 221);
  UsiOptions build;
  build.k = 150;
  build.threads = 1;
  const UsiIndex direct(ws, build);
  const std::string path = ::testing::TempDir() + "degr_mapped.bin";
  ASSERT_TRUE(direct.SaveToFile(path, IndexFileFormat::kV3Mapped));

  UsiMultiServiceOptions options;
  options.threads = 2;
  options.default_build = build;
  options.max_build_retries = 0;
  UsiMultiService service(options);
  ASSERT_GT(service.RegisterTextFromFile("m", ws, path), 0u);

  const std::vector<Text> patterns = PatternsFor(ws, 222);
  const std::vector<MultiQuery> queries = QueriesFor("m", patterns);
  const std::vector<QueryResult> want = DirectAnswers(direct, patterns);
  std::vector<QueryResult> results(queries.size());

  // Warm phase: exact serving records every (pattern, answer) pair.
  ASSERT_EQ(service.QueryBatchInto(queries, results), ServeStatus::kOk);
  ExpectWithinBounds(results, want);

  // Chaos phase: every engine touch faults, and the recovery rebuild the
  // demotion schedules dies in the poisoned build lane (quarantine).
  failpoint::Arm("serve.mapped_fault", failpoint::Action::kError);
  failpoint::Arm("multi.build", failpoint::Action::kThrow);

  MultiBatchOptions batch_options;
  batch_options.allow_degraded = true;
  for (int round = 0; round < 5; ++round) {
    const ServeStatus status =
        service.QueryBatchInto(queries, results, batch_options);
    EXPECT_EQ(status, ServeStatus::kDegraded) << "round " << round;
    ExpectWithinBounds(results, want);
    // The warm phase served every pattern exactly, so the tier answers all
    // of them (cache or sketch) — no slot falls through to kNone.
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_NE(results[i].provenance, AnswerProvenance::kNone)
          << "round " << round << " slot " << i;
    }
  }
  const UsiMultiStats stats = service.stats();
  EXPECT_EQ(stats.degraded_batches, 5u);
  EXPECT_EQ(stats.degraded_answers, 5u * queries.size());
  EXPECT_EQ(stats.index_unavailable, 0u)
      << "opted-in batches must degrade, not fail";

  // Tier telemetry is visible per text.
  const std::optional<UsiTextStats> text_stats = service.StatsFor("m");
  ASSERT_TRUE(text_stats.has_value());
  ASSERT_TRUE(text_stats->degraded.has_value());
  EXPECT_GE(text_stats->degraded->records, queries.size());
  EXPECT_GT(text_stats->degraded->cache_hits, 0u);
  EXPECT_GT(text_stats->degraded->CacheHitRate(), 0.0);
  std::remove(path.c_str());
}

TEST_F(DegradationTest, FaultedBuiltGenerationFallsBackToTier) {
  UsiMultiServiceOptions options;
  options.threads = 2;
  UsiMultiService service(options);
  const WeightedString ws = RandomWeighted(2500, 8, 231);
  service.SubmitText("t", ws);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);

  const std::vector<Text> patterns = PatternsFor(ws, 232);
  const std::vector<MultiQuery> queries = QueriesFor("t", patterns);
  std::vector<QueryResult> results(queries.size());
  ASSERT_EQ(service.QueryBatchInto(queries, results), ServeStatus::kOk);
  UsiOptions direct_options;
  direct_options.threads = 1;
  const UsiIndex direct(ws, direct_options);
  const std::vector<QueryResult> want = DirectAnswers(direct, patterns);

  // Same batch, faulting engine: without the opt-in this is
  // kIndexUnavailable (PR 8); with it, tier answers within bounds.
  failpoint::Arm("serve.mapped_fault", failpoint::Action::kError,
                 /*fires=*/1);
  EXPECT_EQ(service.QueryBatchInto(queries, results),
            ServeStatus::kIndexUnavailable);

  failpoint::Arm("serve.mapped_fault", failpoint::Action::kError,
                 /*fires=*/1);
  MultiBatchOptions batch_options;
  batch_options.allow_degraded = true;
  EXPECT_EQ(service.QueryBatchInto(queries, results, batch_options),
            ServeStatus::kDegraded);
  ExpectWithinBounds(results, want);
  for (const QueryResult& r : results) {
    EXPECT_NE(r.provenance, AnswerProvenance::kNone);
  }
}

TEST_F(DegradationTest, DeadlineExpiryFillsUnreachedSlotsFromTier) {
  UsiMultiServiceOptions options;
  options.threads = 2;
  UsiMultiService service(options);
  const WeightedString ws = RandomWeighted(2500, 8, 241);
  service.SubmitText("t", ws);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);

  const std::vector<Text> patterns = PatternsFor(ws, 242);
  const std::vector<MultiQuery> queries = QueriesFor("t", patterns);
  std::vector<QueryResult> results(queries.size());
  ASSERT_EQ(service.QueryBatchInto(queries, results), ServeStatus::kOk);
  UsiOptions direct_options;
  direct_options.threads = 1;
  const UsiIndex direct(ws, direct_options);
  const std::vector<QueryResult> want = DirectAnswers(direct, patterns);

  // Expired deadline, no opt-in: unreached slots are kNone fillers.
  MultiBatchOptions batch_options;
  batch_options.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(5);
  EXPECT_EQ(service.QueryBatchInto(queries, results, batch_options),
            ServeStatus::kDeadlineExceeded);
  for (const QueryResult& r : results) {
    EXPECT_EQ(r.provenance, AnswerProvenance::kNone);
  }

  // Expired deadline with the opt-in: the status still reports the missed
  // deadline, but the unreached slots carry tier answers within bounds.
  batch_options.allow_degraded = true;
  EXPECT_EQ(service.QueryBatchInto(queries, results, batch_options),
            ServeStatus::kDeadlineExceeded);
  ExpectWithinBounds(results, want);
  for (const QueryResult& r : results) {
    EXPECT_NE(r.provenance, AnswerProvenance::kNone)
        << "warm tier must fill every unreached slot";
  }
}

TEST_F(DegradationTest, OverloadShedsToTierNotRejection) {
  // Once per admission cap: the batch-count cap and the cost cap shed
  // through the same path.
  for (const bool count_cap : {true, false}) {
    SCOPED_TRACE(count_cap ? "max_inflight_batches = 1"
                           : "max_inflight_cost_ms = 1e-6");
    UsiMultiServiceOptions options;
    options.threads = 2;
    if (count_cap) {
      options.max_inflight_batches = 1;
    } else {
      options.max_inflight_cost_ms = 1e-6;  // Any concurrent pair overflows.
    }
    UsiMultiService service(options);
    const WeightedString ws = RandomWeighted(4000, 8, 251);
    service.SubmitText("t", ws);
    ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);

    std::vector<Text> patterns = PatternsFor(ws, 252);
    std::vector<MultiQuery> queries;
    for (int rep = 0; rep < 40; ++rep) {
      for (const Text& p : patterns) queries.push_back({"t", p});
    }
    std::vector<QueryResult> warm(queries.size());
    ASSERT_EQ(service.QueryBatchInto(queries, warm), ServeStatus::kOk);
    UsiOptions direct_options;
    direct_options.threads = 1;
    const UsiIndex direct(ws, direct_options);
    std::vector<QueryResult> want;
    for (const MultiQuery& q : queries) {
      want.push_back(direct.Query(q.pattern));
    }

    MultiBatchOptions batch_options;
    batch_options.allow_degraded = true;
    std::atomic<u64> ok{0}, degraded{0}, other{0};
    for (int round = 0; round < 25 && degraded.load() == 0; ++round) {
      constexpr int kThreads = 4;
      std::latch start(kThreads);
      std::vector<std::thread> threads;
      for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
          std::vector<QueryResult> results(queries.size());
          start.arrive_and_wait();
          const ServeStatus status =
              service.QueryBatchInto(queries, results, batch_options);
          if (status == ServeStatus::kOk) {
            ok.fetch_add(1);
          } else if (status == ServeStatus::kDegraded) {
            degraded.fetch_add(1);
            ExpectWithinBounds(results, want);
          } else {
            other.fetch_add(1);
          }
        });
      }
      for (std::thread& t : threads) t.join();
    }
    EXPECT_GT(ok.load(), 0u) << "someone must always be admitted";
    EXPECT_GT(degraded.load(), 0u) << "sheds must degrade, not reject";
    EXPECT_EQ(other.load(), 0u)
        << "with allow_degraded no batch is rejected outright";
    EXPECT_EQ(service.stats().busy_rejected, 0u);
    EXPECT_EQ(service.stats().overload_rejected, 0u);
    EXPECT_GE(service.stats().degraded_batches, degraded.load());
  }
}

TEST_F(DegradationTest, UnknownTextStaysAllOrNothingWhenDegraded) {
  UsiMultiServiceOptions options;
  options.threads = 1;
  UsiMultiService service(options);
  const WeightedString ws = RandomWeighted(1500, 8, 261);
  service.SubmitText("t", ws);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);

  const Text pattern = ws.Fragment(0, 4);
  const std::vector<MultiQuery> queries = {{"t", pattern}, {"ghost", pattern}};
  std::vector<QueryResult> results(queries.size(), QueryResult{-1, 777});
  MultiBatchOptions batch_options;
  batch_options.allow_degraded = true;
  EXPECT_EQ(service.QueryBatchInto(queries, results, batch_options),
            ServeStatus::kUnknownText);
  EXPECT_EQ(results[0].occurrences, 777u)
      << "kUnknownText must not touch result slots, degraded or not";
}

TEST_F(DegradationTest, DisabledTierKeepsFailCleanBehavior) {
  UsiMultiServiceOptions options;
  options.threads = 1;
  options.max_build_retries = 0;
  options.enable_degraded_tier = false;
  UsiMultiService service(options);
  const WeightedString ws = RandomWeighted(1500, 8, 271);

  failpoint::Arm("multi.build", failpoint::Action::kThrow);
  service.SubmitText("t", ws);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kFailed);

  const std::vector<MultiQuery> queries = {{"t", ws.Fragment(0, 4)}};
  std::vector<QueryResult> results(1);
  MultiBatchOptions batch_options;
  batch_options.allow_degraded = true;
  EXPECT_EQ(service.QueryBatchInto(queries, results, batch_options),
            ServeStatus::kNotReady)
      << "allow_degraded is a no-op when the tier is disabled";

  failpoint::DisarmAll();
  service.UpdateText("t", ws);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);
  const std::optional<UsiTextStats> stats = service.StatsFor("t");
  ASSERT_TRUE(stats.has_value());
  EXPECT_FALSE(stats->degraded.has_value());
}

TEST_F(DegradationTest, ContentUpdateForgetsStaleTierAnswers) {
  UsiMultiServiceOptions options;
  options.threads = 2;
  options.max_build_retries = 0;
  UsiMultiService service(options);
  const WeightedString ws1 = RandomWeighted(2000, 8, 281);
  const WeightedString ws2 = RandomWeighted(2100, 8, 282);
  service.SubmitText("t", ws1);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);

  const std::vector<Text> patterns = PatternsFor(ws1, 283);
  const std::vector<MultiQuery> queries = QueriesFor("t", patterns);
  std::vector<QueryResult> results(queries.size());
  ASSERT_EQ(service.QueryBatchInto(queries, results), ServeStatus::kOk);

  // New content whose build dies: the tier was reset by UpdateText, so the
  // answers learned over ws1 must NOT resurface as "cached, bound 0" —
  // they describe the wrong text. Honest kNone is the only valid answer.
  failpoint::Arm("multi.build", failpoint::Action::kThrow);
  service.UpdateText("t", ws2);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kFailed);
  failpoint::Arm("serve.mapped_fault", failpoint::Action::kError);
  MultiBatchOptions batch_options;
  batch_options.allow_degraded = true;
  EXPECT_EQ(service.QueryBatchInto(queries, results, batch_options),
            ServeStatus::kDegraded);
  for (const QueryResult& r : results) {
    EXPECT_EQ(r.provenance, AnswerProvenance::kNone)
        << "stale answers across a content change would be silent lies";
  }
}

// Runs in every build (no failpoints): between UpdateText and the new
// generation's publish, readers still pin the outgoing generation and feed
// its answers back into the tier AFTER the schedule-time clear. The publish
// must retire them too, or they replay as "cached, bound 0" answers about
// content that no longer exists.
TEST_F(DegradationTest, PublishRetiresAnswersServedFromTheOutgoingGeneration) {
  UsiMultiServiceOptions options;
  options.threads = 1;  // One worker: the build lane serializes everything.
  UsiMultiService service(options);
  const WeightedString ws1 = RandomWeighted(2000, 8, 291);
  const WeightedString ws2 = RandomWeighted(2100, 8, 292);
  service.SubmitText("t", ws1);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);

  const std::vector<Text> patterns = PatternsFor(ws1, 293);
  const std::vector<MultiQuery> queries = QueriesFor("t", patterns);
  UsiOptions direct_options;
  direct_options.threads = 1;
  const std::vector<QueryResult> want_old =
      DirectAnswers(UsiIndex(ws1, direct_options), patterns);
  const std::vector<QueryResult> want_new =
      DirectAnswers(UsiIndex(ws2, direct_options), patterns);

  // A large build hogs the lane, so the content update queues behind it
  // while the batches below are served from the outgoing generation.
  service.SubmitText("hog", RandomWeighted(200'000, 8, 294));
  service.UpdateText("t", ws2);
  std::vector<QueryResult> results(queries.size());
  for (int round = 0; round < 3; ++round) {
    ASSERT_EQ(service.QueryBatchInto(queries, results), ServeStatus::kOk);
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_EQ(results[i].utility, want_old[i].utility) << "slot " << i;
    }
  }
  ASSERT_EQ(service.TextState("t"), BuildState::kPending)
      << "the hog build must still hold the lane while the old "
         "generation serves";
  ASSERT_GT(service.StatsFor("t")->degraded->records, 0u)
      << "the outgoing generation's answers must have reached the tier";

  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);
  MultiBatchOptions batch_options;
  batch_options.allow_degraded = true;
  batch_options.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(5);
  EXPECT_EQ(service.QueryBatchInto(queries, results, batch_options),
            ServeStatus::kDeadlineExceeded);
  std::size_t stale = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].provenance == AnswerProvenance::kCached &&
        (results[i].utility != want_new[i].utility ||
         results[i].occurrences != want_new[i].occurrences)) {
      ++stale;
    }
  }
  EXPECT_EQ(stale, 0u)
      << "answers about the replaced content replayed as cached, bound 0";
  ExpectWithinBounds(results, want_new);
}

// ---------------------------------------------------------------------------
// UnregisterText (satellite): RCU removal, queue purge, no hangs.

TEST_F(DegradationTest, UnregisterMakesTextUnknown) {
  UsiMultiServiceOptions options;
  options.threads = 2;
  UsiMultiService service(options);
  const WeightedString ws = RandomWeighted(1500, 8, 301);
  service.SubmitText("t", ws);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);

  EXPECT_TRUE(service.UnregisterText("t"));
  EXPECT_FALSE(service.HasText("t"));
  EXPECT_EQ(service.TextState("t"), BuildState::kUnknown);
  EXPECT_EQ(service.stats().texts, 0u);
  QueryResult result;
  EXPECT_EQ(service.Query("t", ws.Fragment(0, 4), result),
            ServeStatus::kUnknownText);
  EXPECT_FALSE(service.UnregisterText("t")) << "second removal reports false";

  // The id is immediately reusable with fresh content.
  const WeightedString ws2 = RandomWeighted(1600, 8, 302);
  service.SubmitText("t", ws2);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);
  EXPECT_EQ(service.Query("t", ws2.Fragment(0, 4), result), ServeStatus::kOk);
}

TEST_F(DegradationTest, UnregisterPurgesQueuedBuildsWithoutHanging) {
  UsiMultiServiceOptions options;
  options.threads = 1;  // One worker: the build lane serializes everything.
  UsiMultiService service(options);
  // A large build hogs the lane while the victim's builds sit queued.
  const WeightedString hog = RandomWeighted(60'000, 8, 311);
  const WeightedString ws = RandomWeighted(1500, 8, 312);
  service.SubmitText("hog", hog);
  service.SubmitText("t", ws);
  service.UpdateText("t", ws);  // A second queued job for the same text.

  EXPECT_TRUE(service.UnregisterText("t"));
  // The dropped jobs are accounted as completed: this must return, not hang.
  service.WaitForBuilds();
  EXPECT_FALSE(service.HasText("t"));
  EXPECT_EQ(service.WaitForText("t"), BuildState::kUnknown);
  EXPECT_EQ(service.WaitForText("hog"), BuildState::kReady);
  const UsiMultiStats stats = service.stats();
  EXPECT_EQ(stats.builds_completed, stats.builds_scheduled)
      << "purged jobs must still balance the build ledger";
}

TEST_F(DegradationTest, InFlightBatchesSurviveConcurrentUnregister) {
  UsiMultiServiceOptions options;
  options.threads = 2;
  UsiMultiService service(options);
  const WeightedString ws = RandomWeighted(3000, 8, 321);
  service.SubmitText("t", ws);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);

  const std::vector<Text> patterns = PatternsFor(ws, 322);
  const std::vector<MultiQuery> queries = QueriesFor("t", patterns);
  UsiOptions direct_options;
  direct_options.threads = 1;
  const UsiIndex direct(ws, direct_options);
  const std::vector<QueryResult> want = DirectAnswers(direct, patterns);

  // Readers hammer while the main thread unregisters mid-stream: every
  // batch must be either fully exact (pinned generation, RCU) or a clean
  // kUnknownText rejection — never a crash or a half answer.
  constexpr int kThreads = 4;
  std::latch start(kThreads + 1);
  std::atomic<u64> served{0}, unknown{0}, anomalies{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      std::vector<QueryResult> results(queries.size());
      start.arrive_and_wait();
      for (int round = 0; round < 50; ++round) {
        const ServeStatus status = service.QueryBatchInto(queries, results);
        if (status == ServeStatus::kOk) {
          served.fetch_add(1);
          for (std::size_t i = 0; i < results.size(); ++i) {
            if (results[i].utility != want[i].utility ||
                results[i].occurrences != want[i].occurrences) {
              anomalies.fetch_add(1);
            }
          }
        } else if (status == ServeStatus::kUnknownText) {
          unknown.fetch_add(1);
        } else {
          anomalies.fetch_add(1);
        }
      }
    });
  }
  start.arrive_and_wait();
  EXPECT_TRUE(service.UnregisterText("t"));
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(anomalies.load(), 0u);
  EXPECT_GT(unknown.load(), 0u) << "post-removal batches must reject";
}

}  // namespace
}  // namespace usi
