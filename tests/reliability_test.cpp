// Reliability layer: deterministic fault injection (failpoints), typed load
// errors, deadlines + cost-aware admission, build-lane failure containment,
// and graceful degradation when an index backing fails mid-serve. The chaos
// tests drive every containment path through armed failpoints — no real
// fault is needed, so the whole suite is ThreadSanitizer-clean. Failpoints
// are compiled into every build, so every case runs wherever the suite does
// (tier-1, ASan, and TSan through the "concurrency" label).

#include <atomic>
#include <chrono>
#include <fstream>
#include <latch>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "usi/core/multi_service.hpp"
#include "usi/core/usi_index.hpp"
#include "usi/core/usi_service.hpp"
#include "usi/util/failpoint.hpp"
#include "usi/util/mapped_file.hpp"

namespace usi {
namespace {

using testing::RandomWeighted;

/// Substrings of \p ws plus patterns absent from it (the absent ones reach
/// the engine's miss/fallback stage, where the query-path failpoint and the
/// deadline poll live).
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

bool SameResult(const QueryResult& a, const QueryResult& b) {
  return a.utility == b.utility && a.occurrences == b.occurrences;
}

void ExpectSameResults(const std::vector<QueryResult>& got,
                       const std::vector<QueryResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(SameResult(got[i], want[i])) << "pattern " << i;
  }
}

/// Registers \p id with \p base_len integer-weighted symbols, waits for the
/// build, then appends \p appended more in one span, so the text's update
/// tier holds a live overlay. Returns the full content (base + appended).
WeightedString SubmitWithOverlay(UsiMultiService& service, std::string_view id,
                                 index_t base_len, index_t appended,
                                 u64 seed) {
  const WeightedString full =
      testing::RandomIntegerWeighted(base_len + appended, 4, seed);
  const Text& text = full.text();
  const std::vector<double>& weights = full.weights();
  service.SubmitText(id, WeightedString(Text(text.begin(),
                                             text.begin() + base_len),
                                        std::vector<double>(
                                            weights.begin(),
                                            weights.begin() + base_len)));
  EXPECT_EQ(service.WaitForText(id), BuildState::kReady);
  EXPECT_EQ(service.AppendText(
                id, std::span<const Symbol>(text).subspan(base_len),
                std::span<const double>(weights).subspan(base_len)),
            ServeStatus::kOk);
  return full;
}

/// \p count substrings of \p full (lengths 1-8), every other one starting
/// in the last \p tail + 8 positions: the crossing and appended-only
/// occurrences only the overlay can count.
std::vector<Text> TailBiasedPatterns(const WeightedString& full, index_t tail,
                                     int count, u64 seed) {
  Rng rng(seed);
  std::vector<Text> patterns;
  for (int i = 0; i < count; ++i) {
    const index_t from = i % 2 == 0 ? 0 : full.size() - tail - 8;
    const index_t start = static_cast<index_t>(
        rng.UniformInRange(from, full.size() - 1));
    const index_t max_len = std::min<index_t>(8, full.size() - start);
    patterns.push_back(full.Fragment(
        start, static_cast<index_t>(rng.UniformInRange(1, max_len))));
  }
  return patterns;
}

/// The exactness contract of a partial batch: every kExact slot equals
/// brute force over the full text, every other slot is kNone filler.
/// Returns the number of kExact slots.
std::size_t ExpectExactOrNone(const std::vector<QueryResult>& got,
                              const WeightedString& full,
                              const std::vector<Text>& patterns) {
  std::size_t exact = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].provenance != AnswerProvenance::kExact) {
      EXPECT_EQ(got[i].provenance, AnswerProvenance::kNone) << "slot " << i;
      EXPECT_EQ(got[i].occurrences, 0u) << "slot " << i;
      continue;
    }
    ++exact;
    const QueryResult want =
        testing::BruteUtility(full, patterns[i], GlobalUtilityKind::kSum);
    EXPECT_EQ(got[i].utility, want.utility) << "slot " << i;
    EXPECT_EQ(got[i].occurrences, want.occurrences) << "slot " << i;
  }
  return exact;
}

/// Every test disarms every site on the way out, so an armed failpoint can
/// never leak into a later test (or a later suite in the same process).
class ReliabilityTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }
};

// ---------------------------------------------------------------------------
// Status / state / error-code names (satellite: ServeStatusName coverage).

TEST_F(ReliabilityTest, ServeStatusNamesAreDistinct) {
  const ServeStatus all[] = {
      ServeStatus::kOk,         ServeStatus::kBusy,
      ServeStatus::kUnknownText, ServeStatus::kNotReady,
      ServeStatus::kOverloaded, ServeStatus::kDeadlineExceeded,
      ServeStatus::kIndexUnavailable, ServeStatus::kDegraded,
      ServeStatus::kInvalidArgument,
  };
  std::vector<std::string> names;
  for (ServeStatus status : all) {
    const std::string name = ServeStatusName(status);
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "?");
    names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

TEST_F(ReliabilityTest, BuildStateNamesAreDistinct) {
  const BuildState all[] = {BuildState::kUnknown, BuildState::kPending,
                            BuildState::kBuilding, BuildState::kReady,
                            BuildState::kFailed};
  std::vector<std::string> names;
  for (BuildState state : all) {
    const std::string name = BuildStateName(state);
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "?");
    names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

TEST_F(ReliabilityTest, LoadErrorCodeNamesAreDistinct) {
  const LoadErrorCode all[] = {
      LoadErrorCode::kOk,        LoadErrorCode::kNotFound,
      LoadErrorCode::kIo,        LoadErrorCode::kBadFormat,
      LoadErrorCode::kCorrupt,   LoadErrorCode::kTextMismatch,
      LoadErrorCode::kHostMismatch,
  };
  std::vector<std::string> names;
  for (LoadErrorCode code : all) {
    const std::string name = LoadErrorCodeName(code);
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "?");
    names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

// ---------------------------------------------------------------------------
// Failpoint registry semantics (arming / deterministic firing).
// These drive Site::Evaluate directly, without a library path around it.

TEST_F(ReliabilityTest, SkipAndFiresControlWhenASiteFires) {
  using failpoint::Action;
  failpoint::Site& site = failpoint::Site::Get("reliab.counted");
  failpoint::Arm("reliab.counted", Action::kError, /*fires=*/1, /*skip=*/1);
  EXPECT_FALSE(site.Evaluate());  // Skipped.
  EXPECT_TRUE(site.Evaluate());   // Fires.
  EXPECT_FALSE(site.Evaluate());  // Fire budget exhausted.
  EXPECT_EQ(failpoint::HitCount("reliab.counted"), 3u);
  EXPECT_EQ(failpoint::FireCount("reliab.counted"), 1u);
  failpoint::Disarm("reliab.counted");
  EXPECT_FALSE(site.Evaluate());
  EXPECT_EQ(failpoint::HitCount("reliab.counted"), 0u);
}

TEST_F(ReliabilityTest, ThrowAndBadAllocActionsThrow) {
  using failpoint::Action;
  failpoint::Site& site = failpoint::Site::Get("reliab.thrower");
  failpoint::Arm("reliab.thrower", Action::kThrow);
  EXPECT_THROW(site.Evaluate(), failpoint::FailpointError);
  failpoint::Arm("reliab.thrower", Action::kBadAlloc);
  EXPECT_THROW(site.Evaluate(), std::bad_alloc);
}

TEST_F(ReliabilityTest, PercentDrawsReplayDeterministically) {
  using failpoint::Action;
  using failpoint::Spec;
  failpoint::Site& site = failpoint::Site::Get("reliab.percent");
  Spec spec;
  spec.action = Action::kError;
  spec.percent = 40;
  spec.seed = 1234;
  const auto draw_pattern = [&] {
    failpoint::Arm("reliab.percent", spec);
    std::vector<bool> pattern;
    for (int i = 0; i < 200; ++i) pattern.push_back(site.Evaluate());
    return pattern;
  };
  const std::vector<bool> first = draw_pattern();
  const std::vector<bool> second = draw_pattern();
  EXPECT_EQ(first, second);  // Same seed -> identical firing sequence.
  const std::size_t fired =
      static_cast<std::size_t>(std::count(first.begin(), first.end(), true));
  EXPECT_GT(fired, 0u);
  EXPECT_LT(fired, first.size());
}

// ---------------------------------------------------------------------------
// Typed load errors (satellite: LoadError out-param from LoadFromFile /
// OpenMapped).

TEST_F(ReliabilityTest, LoadErrorsAreTyped) {
  const WeightedString ws = RandomWeighted(2000, 8, 11);
  UsiOptions options;
  options.k = 100;
  options.threads = 1;
  const UsiIndex index(ws, options);
  const std::string dir = ::testing::TempDir();
  const std::string v3 = dir + "reliab_load_v3.bin";
  const std::string junk = dir + "reliab_load_junk.bin";
  ASSERT_TRUE(index.SaveToFile(v3, IndexFileFormat::kV3Mapped));

  LoadError error;
  // Success leaves the error at kOk with no message, both ways of opening.
  EXPECT_NE(UsiIndex::LoadFromFile(ws, v3, &error), nullptr);
  EXPECT_EQ(error.code, LoadErrorCode::kOk);
  EXPECT_TRUE(error.message.empty());
  EXPECT_NE(UsiIndex::OpenMapped(ws, v3, &error), nullptr);
  EXPECT_EQ(error.code, LoadErrorCode::kOk);

  // Missing file.
  EXPECT_EQ(UsiIndex::LoadFromFile(ws, dir + "reliab_nope.bin", &error),
            nullptr);
  EXPECT_EQ(error.code, LoadErrorCode::kNotFound);
  EXPECT_FALSE(error.message.empty());

  // Unrecognized magic.
  {
    std::ofstream out(junk, std::ios::binary);
    out << "this is not an index file at all, not even close............";
  }
  EXPECT_EQ(UsiIndex::LoadFromFile(ws, junk, &error), nullptr);
  EXPECT_EQ(error.code, LoadErrorCode::kBadFormat);

  // Truncated v3 image: the header pins the exact file size.
  {
    std::ifstream in(v3, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    bytes.resize(bytes.size() - 64);
    std::ofstream out(junk, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_EQ(UsiIndex::OpenMapped(ws, junk, &error), nullptr);
  EXPECT_EQ(error.code, LoadErrorCode::kCorrupt);
  EXPECT_EQ(UsiIndex::LoadFromFile(ws, junk, &error), nullptr);
  EXPECT_EQ(error.code, LoadErrorCode::kCorrupt);

  // Built over a different text.
  const WeightedString other = RandomWeighted(2100, 8, 12);
  EXPECT_EQ(UsiIndex::OpenMapped(other, v3, &error), nullptr);
  EXPECT_EQ(error.code, LoadErrorCode::kTextMismatch);
  EXPECT_EQ(UsiIndex::LoadFromFile(other, v3, &error), nullptr);
  EXPECT_EQ(error.code, LoadErrorCode::kTextMismatch);

  std::remove(v3.c_str());
  std::remove(junk.c_str());
}

TEST_F(ReliabilityTest, LoadFailpointsInjectIoErrors) {
  const WeightedString ws = RandomWeighted(1500, 8, 13);
  UsiOptions options;
  options.k = 80;
  options.threads = 1;
  const UsiIndex index(ws, options);
  const std::string dir = ::testing::TempDir();
  const std::string v3 = dir + "reliab_fp_v3.bin";
  ASSERT_TRUE(index.SaveToFile(v3, IndexFileFormat::kV3Mapped));

  LoadError error;
  failpoint::Arm("open.mapped", failpoint::Action::kError, /*fires=*/1);
  EXPECT_EQ(UsiIndex::OpenMapped(ws, v3, &error), nullptr);
  EXPECT_EQ(error.code, LoadErrorCode::kIo);
  EXPECT_NE(UsiIndex::OpenMapped(ws, v3, &error), nullptr)
      << "fire budget exhausted: the next open must succeed";

  failpoint::Arm("load.heap", failpoint::Action::kError, /*fires=*/1);
  EXPECT_EQ(UsiIndex::LoadFromFile(ws, v3, &error), nullptr);
  EXPECT_EQ(error.code, LoadErrorCode::kIo);
  EXPECT_NE(UsiIndex::LoadFromFile(ws, v3, &error), nullptr);

  std::remove(v3.c_str());
}

TEST_F(ReliabilityTest, SaveFailpointsLeaveNoPartialFile) {
  const WeightedString ws = RandomWeighted(1500, 8, 14);
  UsiOptions options;
  options.k = 80;
  options.threads = 1;
  const UsiIndex index(ws, options);
  const std::string path = ::testing::TempDir() + "reliab_save.bin";
  std::remove(path.c_str());

  // A failed body write must not publish the target (staging discipline).
  failpoint::Arm("save.body", failpoint::Action::kError, /*fires=*/1);
  EXPECT_FALSE(index.SaveToFile(path, IndexFileFormat::kV3Mapped));
  EXPECT_FALSE(std::ifstream(path).good());

  // A failed publish (rename) must clean up the staged temp too.
  failpoint::Arm("save.publish", failpoint::Action::kError, /*fires=*/1);
  EXPECT_FALSE(index.SaveToFile(path, IndexFileFormat::kV3Mapped));
  EXPECT_FALSE(std::ifstream(path).good());
  EXPECT_EQ(RemoveStaleTemps(path), 0) << "staged temp leaked";

  EXPECT_TRUE(index.SaveToFile(path, IndexFileFormat::kV3Mapped));
  EXPECT_TRUE(std::ifstream(path).good());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Deadlines: partial results, bounded overshoot, clean totals.

TEST_F(ReliabilityTest, ServiceDeadlineExpiredReturnsPartialResults) {
  const WeightedString ws = RandomWeighted(3000, 8, 21);
  UsiOptions options;
  options.k = 150;
  options.threads = 1;
  UsiIndex index(ws, options);
  UsiServiceOptions service_options;
  service_options.threads = 1;
  UsiService service(index, service_options);
  const std::vector<Text> patterns = PatternsFor(ws, 22);
  const std::vector<PatternSpan> spans = AsPatternSpans(patterns);
  const std::vector<QueryResult> want = DirectAnswers(index, patterns);

  // Already-expired deadline: every slot written (defaults), zero answered.
  std::vector<QueryResult> results(patterns.size(),
                                   QueryResult{/*utility=*/-1, 777});
  UsiBatchStats stats;
  UsiBatchOptions batch_options;
  batch_options.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(5);
  EXPECT_EQ(service.QueryBatchInto(spans, std::span<QueryResult>(results),
                                   &stats, batch_options),
            ServeStatus::kDeadlineExceeded);
  EXPECT_TRUE(stats.deadline_expired);
  EXPECT_EQ(stats.answered, 0u);
  for (const QueryResult& r : results) {
    EXPECT_EQ(r.occurrences, 0u) << "expired slots must be defaulted";
  }
  const UsiBatchStats expired_stats = stats;

  // Far-future deadline: the batch serves completely and correctly.
  batch_options.deadline =
      std::chrono::steady_clock::now() + std::chrono::hours(1);
  EXPECT_EQ(service.QueryBatchInto(spans, std::span<QueryResult>(results),
                                   &stats, batch_options),
            ServeStatus::kOk);
  EXPECT_FALSE(stats.deadline_expired);
  EXPECT_EQ(stats.answered, patterns.size());
  ExpectSameResults(results, want);

  // Summed over both batches' stats: the expired batch contributed no
  // served queries and the only deadline expiry. Neither status above is
  // kIndexUnavailable, so neither batch was a serve failure.
  EXPECT_EQ(expired_stats.answered + stats.answered, patterns.size());
  EXPECT_EQ((expired_stats.deadline_expired ? 1 : 0) +
                (stats.deadline_expired ? 1 : 0),
            1);
}

TEST_F(ReliabilityTest, MultiServiceDeadlinePartialAndRecovery) {
  UsiMultiServiceOptions options;
  options.threads = 2;
  UsiMultiService service(options);
  const WeightedString ws_a = RandomWeighted(2500, 8, 31);
  const WeightedString ws_b = RandomWeighted(2500, 8, 32);
  service.SubmitText("a", ws_a);
  service.SubmitText("b", ws_b);
  ASSERT_EQ(service.WaitForText("a"), BuildState::kReady);
  ASSERT_EQ(service.WaitForText("b"), BuildState::kReady);

  const std::vector<Text> pa = PatternsFor(ws_a, 33);
  const std::vector<Text> pb = PatternsFor(ws_b, 34);
  std::vector<MultiQuery> queries;
  for (const Text& p : pa) queries.push_back({"a", p});
  for (const Text& p : pb) queries.push_back({"b", p});

  std::vector<QueryResult> results(queries.size(), QueryResult{-1, 777});
  MultiBatchOptions batch_options;
  batch_options.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(5);
  EXPECT_EQ(service.QueryBatchInto(queries, results, batch_options),
            ServeStatus::kDeadlineExceeded);
  for (const QueryResult& r : results) {
    EXPECT_EQ(r.occurrences, 0u) << "expired slots must be defaulted";
  }
  EXPECT_EQ(service.stats().deadline_expired, 1u);

  // The same batch with room to breathe serves fully and correctly.
  batch_options.deadline =
      std::chrono::steady_clock::now() + std::chrono::hours(1);
  EXPECT_EQ(service.QueryBatchInto(queries, results, batch_options),
            ServeStatus::kOk);
  UsiOptions direct;
  direct.threads = 1;
  const UsiIndex oracle_a(ws_a, direct);
  const UsiIndex oracle_b(ws_b, direct);
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(SameResult(results[i], oracle_a.Query(pa[i]))) << i;
  }
  for (std::size_t i = 0; i < pb.size(); ++i) {
    EXPECT_TRUE(SameResult(results[pa.size() + i], oracle_b.Query(pb[i])))
        << i;
  }
}

// ---------------------------------------------------------------------------
// Typed errors for bad client sizes: all-or-nothing kInvalidArgument, no
// result slot (or any other state) touched, never a process abort.

TEST_F(ReliabilityTest, ShortResultsSpanIsInvalidArgumentForService) {
  const WeightedString ws = RandomWeighted(1500, 8, 131);
  UsiOptions options;
  options.k = 80;
  options.threads = 1;
  UsiIndex index(ws, options);
  UsiServiceOptions service_options;
  service_options.threads = 1;
  UsiService service(index, service_options);
  const std::vector<Text> patterns = PatternsFor(ws, 132);
  std::vector<QueryResult> results(patterns.size() - 1,
                                   QueryResult{/*utility=*/-1, 777});
  // Sentinels in every field: a refused batch writes no telemetry.
  UsiBatchStats stats;
  stats.patterns = 999;
  stats.answered = 998;
  stats.hash_hits = 997;
  stats.shards = 996;
  stats.threads_used = 95;
  stats.seconds = -1;
  stats.deadline_expired = true;
  EXPECT_EQ(service.QueryBatchInto(AsPatternSpans(patterns),
                                   std::span<QueryResult>(results), &stats),
            ServeStatus::kInvalidArgument);
  for (const QueryResult& r : results) {
    EXPECT_EQ(r.utility, -1);
    EXPECT_EQ(r.occurrences, 777u);
  }
  EXPECT_EQ(stats.patterns, 999u);
  EXPECT_EQ(stats.answered, 998u);
  EXPECT_EQ(stats.hash_hits, 997u);
  EXPECT_EQ(stats.shards, 996u);
  EXPECT_EQ(stats.threads_used, 95u);
  EXPECT_EQ(stats.seconds, -1);
  EXPECT_TRUE(stats.deadline_expired);
}

TEST_F(ReliabilityTest, ShortResultsSpanIsInvalidArgumentForMultiService) {
  UsiMultiServiceOptions options;
  options.threads = 2;
  UsiMultiService service(options);
  const WeightedString ws = RandomWeighted(1500, 8, 133);
  service.SubmitText("t", ws);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);
  const std::vector<Text> patterns = PatternsFor(ws, 134);
  std::vector<MultiQuery> queries;
  for (const Text& p : patterns) queries.push_back({"t", p});
  std::vector<QueryResult> results(queries.size() - 1,
                                   QueryResult{/*utility=*/-1, 777});
  EXPECT_EQ(service.QueryBatchInto(queries, results),
            ServeStatus::kInvalidArgument);
  for (const QueryResult& r : results) {
    EXPECT_EQ(r.utility, -1);
    EXPECT_EQ(r.occurrences, 777u);
  }
  EXPECT_EQ(service.stats().batches, 0u);
  EXPECT_EQ(service.StatsFor("t")->batches, 0u);
}

TEST_F(ReliabilityTest, MismatchedAppendIsInvalidArgument) {
  UsiMultiServiceOptions options;
  options.threads = 2;
  UsiMultiService service(options);
  const WeightedString ws = RandomWeighted(1500, 8, 135);
  service.SubmitText("t", ws);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);
  const Text text = ws.Fragment(0, 8);
  const std::vector<double> weights(7, 1.0);
  EXPECT_EQ(service.AppendText("t", text, weights),
            ServeStatus::kInvalidArgument);
  // Checked before the id: an unknown text with bad sizes is still a bad
  // argument, and nothing was registered or appended either way.
  EXPECT_EQ(service.AppendText("nope", text, weights),
            ServeStatus::kInvalidArgument);
  EXPECT_FALSE(service.HasText("nope"));
  const std::optional<UsiTextStats> stats = service.StatsFor("t");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->appends, 0u);
  EXPECT_FALSE(stats->delta.has_value());
  EXPECT_EQ(service.stats().appends, 0u);

  // The text still answers exactly over its unchanged content.
  UsiOptions direct;
  direct.threads = 1;
  const UsiIndex oracle(ws, direct);
  const std::vector<Text> patterns = PatternsFor(ws, 136);
  std::vector<MultiQuery> queries;
  for (const Text& p : patterns) queries.push_back({"t", p});
  const MultiBatchResult batch = service.QueryBatch(queries);
  EXPECT_EQ(batch.status, ServeStatus::kOk);
  ExpectSameResults(batch.results, DirectAnswers(oracle, patterns));
}

TEST_F(ReliabilityTest, NonFiniteWeightsAreRejectedBeforeAnyChange) {
  UsiMultiServiceOptions options;
  options.threads = 2;
  UsiMultiService service(options);
  const WeightedString ws = RandomWeighted(1500, 8, 137);
  UsiOptions build;
  build.k = 80;
  build.threads = 1;
  const UsiIndex oracle(ws, build);
  service.SubmitText("t", ws, build);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);
  const std::vector<Text> patterns = PatternsFor(ws, 138);
  std::vector<MultiQuery> queries;
  for (const Text& p : patterns) queries.push_back({"t", p});
  ASSERT_EQ(service.QueryBatch(queries).status, ServeStatus::kOk);
  const std::size_t tier_size = service.StatsFor("t")->degraded->cache_size;
  ASSERT_GT(tier_size, 0u);

  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    std::vector<double> weights = ws.weights();
    weights[7] = bad;
    const WeightedString poisoned(ws.text(), weights);
    EXPECT_EQ(service.SubmitText("new", poisoned), 0u);
    EXPECT_FALSE(service.HasText("new"));
    EXPECT_EQ(service.SubmitText("t", poisoned, build), 0u);
    EXPECT_EQ(service.UpdateText("t", poisoned), 0u);
  }

  // Nothing was scheduled, published or cleared: the text serves its old
  // generation, and its tier still holds what it learned.
  EXPECT_EQ(service.stats().texts, 1u);
  EXPECT_EQ(service.stats().builds_scheduled, 1u);
  const std::optional<UsiTextStats> stats = service.StatsFor("t");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->generation, 1u);
  EXPECT_EQ(stats->builds_scheduled, 1u);
  EXPECT_EQ(stats->degraded->cache_size, tier_size);
  const MultiBatchResult batch = service.QueryBatch(queries);
  EXPECT_EQ(batch.status, ServeStatus::kOk);
  ExpectSameResults(batch.results, DirectAnswers(oracle, patterns));
}

// ---------------------------------------------------------------------------
// Cost-aware admission.

TEST_F(ReliabilityTest, CostModelCalibratesAndLoneBatchAlwaysAdmits) {
  UsiMultiServiceOptions options;
  options.threads = 2;
  // A cap this small rejects any batch — except a lone one: with nothing in
  // flight the batch must be admitted no matter its estimated cost.
  options.max_inflight_cost_ms = 1e-6;
  UsiMultiService service(options);
  const WeightedString ws = RandomWeighted(2500, 8, 41);
  service.SubmitText("t", ws);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);

  const std::vector<Text> patterns = PatternsFor(ws, 42);
  std::vector<MultiQuery> queries;
  for (const Text& p : patterns) queries.push_back({"t", p});
  std::vector<QueryResult> results(queries.size());
  for (int round = 0; round < 8; ++round) {
    EXPECT_EQ(service.QueryBatchInto(queries, results), ServeStatus::kOk)
        << "lone batches must never be rejected by the cost cap";
  }
  EXPECT_EQ(service.stats().overload_rejected, 0u);

  // Enough bytes have been served to calibrate the per-byte cost.
  const std::optional<UsiTextStats> stats = service.StatsFor("t");
  ASSERT_TRUE(stats.has_value());
  EXPECT_GT(stats->cost_ns_per_byte, 0.0);
}

TEST_F(ReliabilityTest, ConcurrentBatchesOverCostCapShedWithOverloaded) {
  UsiMultiServiceOptions options;
  options.threads = 2;
  options.max_inflight_cost_ms = 1e-6;  // Any concurrent pair overflows.
  UsiMultiService service(options);
  const WeightedString ws = RandomWeighted(4000, 8, 51);
  service.SubmitText("t", ws);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);

  // Large batches stretch the in-flight window so simultaneous starts
  // overlap; retry rounds bound the (tiny) chance of a flake without ever
  // sleeping on the happy path.
  std::vector<Text> patterns = PatternsFor(ws, 52);
  std::vector<MultiQuery> queries;
  for (int rep = 0; rep < 40; ++rep) {
    for (const Text& p : patterns) queries.push_back({"t", p});
  }
  std::atomic<u64> ok{0}, overloaded{0}, attempts{0};
  for (int round = 0; round < 25 && overloaded.load() == 0; ++round) {
    constexpr int kThreads = 4;
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        std::vector<QueryResult> results(queries.size());
        start.arrive_and_wait();
        attempts.fetch_add(1);
        const ServeStatus status = service.QueryBatchInto(queries, results);
        if (status == ServeStatus::kOk) ok.fetch_add(1);
        if (status == ServeStatus::kOverloaded) overloaded.fetch_add(1);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  EXPECT_GT(ok.load(), 0u) << "someone must always be admitted";
  EXPECT_GT(overloaded.load(), 0u);
  const UsiMultiStats stats = service.stats();
  EXPECT_EQ(stats.overload_rejected, overloaded.load());
  // Shed batches must not corrupt the admitted totals.
  EXPECT_EQ(stats.batches, ok.load());
  EXPECT_EQ(stats.queries, ok.load() * queries.size());
}

// ---------------------------------------------------------------------------
// Build-lane failure containment (quarantine, retries, WaitForText).

TEST_F(ReliabilityTest, BuildFailureQuarantinesTextAsFailed) {
  UsiMultiServiceOptions options;
  options.threads = 2;
  options.max_build_retries = 1;
  options.build_retry_backoff_ms = 1;
  UsiMultiService service(options);
  const WeightedString ws = RandomWeighted(2000, 8, 61);

  failpoint::Arm("multi.build", failpoint::Action::kThrow);
  service.SubmitText("t", ws);
  // WaitForText must terminate with the quarantine state, not hang.
  EXPECT_EQ(service.WaitForText("t"), BuildState::kFailed);
  EXPECT_EQ(service.TextState("t"), BuildState::kFailed);

  const std::optional<UsiTextStats> stats = service.StatsFor("t");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->builds_failed, 1u);
  EXPECT_EQ(stats->build_retries, 1u);  // One retry before quarantine.
  EXPECT_EQ(stats->generation, 0u);     // Nothing ever published.
  EXPECT_NE(stats->last_build_error.find("multi.build"), std::string::npos)
      << "cause: " << stats->last_build_error;
  EXPECT_EQ(service.stats().builds_failed, 1u);

  // No generation to serve: queries report kNotReady, not a hang or crash.
  const Text pattern = ws.Fragment(0, 4);
  QueryResult result;
  EXPECT_EQ(service.Query("t", pattern, result), ServeStatus::kNotReady);

  // The quarantine lifts on the next successful build.
  failpoint::DisarmAll();
  service.UpdateText("t", ws);
  EXPECT_EQ(service.WaitForText("t"), BuildState::kReady);
  EXPECT_EQ(service.Query("t", pattern, result), ServeStatus::kOk);
}

TEST_F(ReliabilityTest, FailedRebuildKeepsServingPreviousGeneration) {
  UsiMultiServiceOptions options;
  options.threads = 2;
  options.max_build_retries = 0;
  UsiMultiService service(options);
  const WeightedString ws1 = RandomWeighted(2500, 8, 71);
  const WeightedString ws2 = RandomWeighted(2600, 8, 72);
  service.SubmitText("t", ws1);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);

  const std::vector<Text> patterns = PatternsFor(ws1, 73);
  std::vector<MultiQuery> queries;
  for (const Text& p : patterns) queries.push_back({"t", p});
  UsiOptions direct;
  direct.threads = 1;
  const UsiIndex oracle1(ws1, direct);
  const std::vector<QueryResult> want1 = DirectAnswers(oracle1, patterns);

  failpoint::Arm("multi.build", failpoint::Action::kThrow);
  service.UpdateText("t", ws2);
  EXPECT_EQ(service.WaitForText("t"), BuildState::kFailed);

  // Differential check: the quarantined text still answers from the intact
  // previous generation, byte-for-byte the direct-index answers.
  MultiBatchResult batch = service.QueryBatch(queries);
  EXPECT_EQ(batch.status, ServeStatus::kOk);
  ExpectSameResults(batch.results, want1);
  const std::optional<UsiTextStats> stats = service.StatsFor("t");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->generation, 1u) << "generation 1 must keep serving";

  // Once builds work again the replacement lands normally.
  failpoint::DisarmAll();
  service.UpdateText("t", ws2);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);
  const UsiIndex oracle2(ws2, direct);
  const std::vector<Text> patterns2 = PatternsFor(ws2, 74);
  std::vector<MultiQuery> queries2;
  for (const Text& p : patterns2) queries2.push_back({"t", p});
  batch = service.QueryBatch(queries2);
  EXPECT_EQ(batch.status, ServeStatus::kOk);
  ExpectSameResults(batch.results, DirectAnswers(oracle2, patterns2));
}

TEST_F(ReliabilityTest, TransientBuildFailureIsRetriedToSuccess) {
  UsiMultiServiceOptions options;
  options.threads = 2;
  options.max_build_retries = 2;
  options.build_retry_backoff_ms = 1;
  UsiMultiService service(options);
  const WeightedString ws = RandomWeighted(2000, 8, 81);

  failpoint::Arm("multi.build", failpoint::Action::kThrow, /*fires=*/1);
  service.SubmitText("t", ws);
  EXPECT_EQ(service.WaitForText("t"), BuildState::kReady);
  const std::optional<UsiTextStats> stats = service.StatsFor("t");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->build_retries, 1u);
  EXPECT_EQ(stats->builds_failed, 0u);
  EXPECT_EQ(stats->builds_completed, 1u);
  EXPECT_EQ(stats->build_state, BuildState::kReady);
}

TEST_F(ReliabilityTest, BuilderStageFailpointsAreContained) {
  // No pool: builds run synchronously inside SubmitText, including the
  // terminal-failure path, so each stage's containment is step-debuggable.
  for (const char* stage : {"build.sa", "build.mine", "build.table",
                            "build.learn"}) {
    UsiMultiServiceOptions options;
    options.max_build_retries = 0;
    UsiMultiService service(nullptr, options);
    const WeightedString ws = RandomWeighted(1500, 8, 91);
    failpoint::Arm(stage, failpoint::Action::kThrow, /*fires=*/1);
    service.SubmitText("t", ws);
    EXPECT_EQ(service.TextState("t"), BuildState::kFailed) << stage;
    const std::optional<UsiTextStats> stats = service.StatsFor("t");
    ASSERT_TRUE(stats.has_value());
    EXPECT_NE(stats->last_build_error.find(stage), std::string::npos)
        << "cause: " << stats->last_build_error;
    // The next build of the same service succeeds (fire budget spent).
    service.UpdateText("t", ws);
    EXPECT_EQ(service.WaitForText("t"), BuildState::kReady) << stage;
    failpoint::DisarmAll();
  }
}

TEST_F(ReliabilityTest, SimulatedBadAllocQuarantinesWithCause) {
  UsiMultiServiceOptions options;
  options.max_build_retries = 0;
  UsiMultiService service(nullptr, options);
  const WeightedString ws = RandomWeighted(1500, 8, 95);
  failpoint::Arm("multi.build", failpoint::Action::kBadAlloc, /*fires=*/1);
  service.SubmitText("t", ws);
  EXPECT_EQ(service.TextState("t"), BuildState::kFailed);
  const std::optional<UsiTextStats> stats = service.StatsFor("t");
  ASSERT_TRUE(stats.has_value());
  EXPECT_NE(stats->last_build_error.find("memory"), std::string::npos)
      << "cause: " << stats->last_build_error;
}

// ---------------------------------------------------------------------------
// Mapped-index degradation: a faulted mmap-backed generation fails the
// batch with kIndexUnavailable (partial results), is demoted, and the text
// recovers — by a heap read of its source file when that file is still
// good, by rebuild otherwise. The process never crashes and answers stay
// correct.

TEST_F(ReliabilityTest, MappedFaultFailsBatchThenRecovers) {
  const WeightedString ws = RandomWeighted(3000, 8, 101);
  UsiOptions build;
  build.k = 150;
  build.threads = 1;
  const UsiIndex direct(ws, build);
  const std::string path = ::testing::TempDir() + "reliab_mapped.bin";
  ASSERT_TRUE(direct.SaveToFile(path, IndexFileFormat::kV3Mapped));

  UsiMultiServiceOptions options;
  options.threads = 2;
  options.default_build = build;
  UsiMultiService service(options);
  ASSERT_GT(service.RegisterTextFromFile("m", ws, path), 0u);

  const std::vector<Text> patterns = PatternsFor(ws, 102);
  std::vector<MultiQuery> queries;
  for (const Text& p : patterns) queries.push_back({"m", p});
  const std::vector<QueryResult> want = DirectAnswers(direct, patterns);

  // Healthy mapped serving first (differential against the direct index).
  MultiBatchResult batch = service.QueryBatch(queries);
  ASSERT_EQ(batch.status, ServeStatus::kOk);
  ExpectSameResults(batch.results, want);

  // One simulated mmap fault: the batch reports kIndexUnavailable with
  // every slot written, and the faulted generation is demoted.
  failpoint::Arm("serve.mapped_fault", failpoint::Action::kError,
                 /*fires=*/1);
  batch = service.QueryBatch(queries);
  EXPECT_EQ(batch.status, ServeStatus::kIndexUnavailable);
  EXPECT_EQ(batch.results.size(), queries.size());
  EXPECT_EQ(service.stats().index_unavailable, 1u);

  // Recovery: the demoted text reloads its source file into the heap and
  // serves correct answers again — same differential oracle.
  EXPECT_EQ(service.WaitForText("m"), BuildState::kReady);
  batch = service.QueryBatch(queries);
  EXPECT_EQ(batch.status, ServeStatus::kOk);
  ExpectSameResults(batch.results, want);
  std::remove(path.c_str());
}

TEST_F(ReliabilityTest, MappedFaultRecoversByHeapReadWhenBuildsFail) {
  // Recovery must not depend on a rebuild: with every SA construction
  // failing, the only way back to kReady is the heap read of the (intact)
  // source file.
  const WeightedString ws = RandomWeighted(3000, 8, 103);
  UsiOptions build;
  build.k = 150;
  build.threads = 1;
  const UsiIndex direct(ws, build);
  const std::string path = ::testing::TempDir() + "reliab_mapped_heap.bin";
  ASSERT_TRUE(direct.SaveToFile(path));

  UsiMultiServiceOptions options;
  options.threads = 2;
  options.default_build = build;
  options.max_build_retries = 1;
  options.build_retry_backoff_ms = 1;
  UsiMultiService service(options);
  ASSERT_GT(service.RegisterTextFromFile("m", ws, path), 0u);

  const std::vector<Text> patterns = PatternsFor(ws, 104);
  std::vector<MultiQuery> queries;
  for (const Text& p : patterns) queries.push_back({"m", p});
  const std::vector<QueryResult> want = DirectAnswers(direct, patterns);

  failpoint::Arm("build.sa", failpoint::Action::kThrow);
  failpoint::Arm("serve.mapped_fault", failpoint::Action::kError,
                 /*fires=*/1);
  MultiBatchResult batch = service.QueryBatch(queries);
  EXPECT_EQ(batch.status, ServeStatus::kIndexUnavailable);

  EXPECT_EQ(service.WaitForText("m"), BuildState::kReady);
  EXPECT_EQ(failpoint::FireCount("build.sa"), 0u)
      << "recovery must load, not rebuild";
  const std::optional<UsiTextStats> stats = service.StatsFor("m");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->generation, 2u);
  EXPECT_EQ(stats->builds_failed, 0u);
  batch = service.QueryBatch(queries);
  EXPECT_EQ(batch.status, ServeStatus::kOk);
  ExpectSameResults(batch.results, want);
  std::remove(path.c_str());
}

TEST_F(ReliabilityTest, ServiceContainsEngineExceptions) {
  const WeightedString ws = RandomWeighted(2000, 8, 111);
  UsiOptions options;
  options.k = 100;
  options.threads = 1;
  UsiIndex index(ws, options);
  UsiServiceOptions service_options;
  service_options.threads = 1;
  UsiService service(index, service_options);
  const std::vector<Text> patterns = PatternsFor(ws, 112);
  const std::vector<PatternSpan> spans = AsPatternSpans(patterns);
  std::vector<QueryResult> results(patterns.size());

  // An exception out of the engine's miss/fallback stage must not escape:
  // the batch fails soft with kIndexUnavailable and defaulted slots.
  failpoint::Arm("query.fallback", failpoint::Action::kThrow, /*fires=*/1);
  UsiBatchStats stats;
  EXPECT_EQ(service.QueryBatchInto(spans, std::span<QueryResult>(results),
                                   &stats),
            ServeStatus::kIndexUnavailable);
  EXPECT_EQ(stats.answered, 0u);
  for (const QueryResult& r : results) {
    EXPECT_EQ(r.provenance, AnswerProvenance::kNone);
  }

  // The service (and the thread's scratch) survives: the next batch is clean.
  EXPECT_EQ(service.QueryBatchInto(spans, std::span<QueryResult>(results),
                                   &stats),
            ServeStatus::kOk);
  EXPECT_EQ(stats.answered, patterns.size());
  ExpectSameResults(results, DirectAnswers(index, patterns));
}

// ---------------------------------------------------------------------------
// Partial batches over a live update-tier overlay: the slots the base did
// answer are merged with the overlay like any other exact answer, and the
// rest are kNone — never a base-only answer or a zero tagged kExact.

TEST_F(ReliabilityTest, MultiServiceFaultWithDeltaKeepsExactSlotsExact) {
  UsiMultiServiceOptions options;
  options.threads = 2;
  UsiMultiService service(options);
  const WeightedString full = SubmitWithOverlay(service, "t", 3000, 600, 141);
  const std::vector<Text> patterns = TailBiasedPatterns(full, 600, 256, 142);
  std::vector<MultiQuery> queries;
  for (const Text& p : patterns) queries.push_back({"t", p});

  // One shard of the group faults; the others answer.
  failpoint::Arm("serve.mapped_fault", failpoint::Action::kError,
                 /*fires=*/1);
  std::vector<QueryResult> results(queries.size());
  EXPECT_EQ(service.QueryBatchInto(queries, results),
            ServeStatus::kIndexUnavailable);
  const std::size_t exact = ExpectExactOrNone(results, full, patterns);
  EXPECT_GT(exact, 0u) << "the shards that did not fault must answer";
  EXPECT_LT(exact, results.size()) << "the faulted shard must leave kNone";
}

TEST_F(ReliabilityTest,
       MultiServiceMidGroupDeadlineWithDeltaKeepsExactSlotsExact) {
  UsiMultiServiceOptions options;
  options.threads = 2;
  UsiMultiService service(options);
  const WeightedString full =
      SubmitWithOverlay(service, "t", 20000, 600, 151);
  const std::vector<Text> patterns = TailBiasedPatterns(full, 600, 3000, 152);
  std::vector<MultiQuery> queries;
  for (const Text& p : patterns) queries.push_back({"t", p});

  // One full batch's time, the best of three warm runs.
  std::vector<QueryResult> results(queries.size());
  double full_seconds = 1e9;
  for (int run = 0; run < 3; ++run) {
    const auto start = std::chrono::steady_clock::now();
    ASSERT_EQ(service.QueryBatchInto(queries, results), ServeStatus::kOk);
    full_seconds = std::min(
        full_seconds, std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  }
  EXPECT_EQ(ExpectExactOrNone(results, full, patterns), results.size());

  // Deadlines from 80% of that time down to ~0.2%, by a factor of 0.85 a
  // round: the engine's share of a batch (the rest is the overlay merge
  // and the tier record) shrinks in sanitizer builds, so the window that
  // expires inside the engine moves down. A mid-group expiry is one where
  // the text's group was reached (its batch count grew) and still expired.
  bool mid_group = false;
  double fraction = 0.8;
  for (int round = 0; round < 40 && !mid_group; ++round, fraction *= 0.85) {
    const u64 before = service.StatsFor("t")->batches;
    MultiBatchOptions batch_options;
    batch_options.deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(fraction * full_seconds));
    const ServeStatus status =
        service.QueryBatchInto(queries, results, batch_options);
    if (status != ServeStatus::kDeadlineExceeded) {
      ASSERT_EQ(status, ServeStatus::kOk);
      continue;
    }
    if (service.StatsFor("t")->batches == before) continue;
    mid_group = true;
    ExpectExactOrNone(results, full, patterns);
  }
  EXPECT_TRUE(mid_group) << "no round expired inside the group";
}

// ---------------------------------------------------------------------------
// Registration hygiene (satellite: stale staging temps are swept).

TEST_F(ReliabilityTest, RegistrationSweepsStaleStagingTemps) {
  const WeightedString ws = RandomWeighted(2000, 8, 121);
  UsiOptions build;
  build.k = 100;
  build.threads = 1;
  const UsiIndex index(ws, build);
  const std::string path = ::testing::TempDir() + "reliab_sweep.bin";
  ASSERT_TRUE(index.SaveToFile(path, IndexFileFormat::kV3Mapped));
  // A crashed writer's leftover: same staging prefix, dead pid.
  const std::string stale = path + ".tmp.999999";
  { std::ofstream(stale, std::ios::binary) << "half-written index"; }
  ASSERT_TRUE(std::ifstream(stale).good());

  UsiMultiServiceOptions options;
  options.threads = 1;
  UsiMultiService service(options);
  ASSERT_GT(service.RegisterTextFromFile("s", ws, path), 0u);
  EXPECT_FALSE(std::ifstream(stale).good())
      << "registration must sweep stale staging temps next to the file";
  std::remove(path.c_str());
}

}  // namespace
}  // namespace usi
