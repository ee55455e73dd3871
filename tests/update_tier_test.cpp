// Update tier: AppendText must make appended content visible to queries
// immediately (exact merged base+delta answers, no rebuild), background
// compaction must fold the delta into a new generation without readers ever
// seeing a torn (base, delta) pair, and a failed compaction must quarantine
// per the reliability-layer semantics while the old base keeps serving and
// the delta keeps absorbing. The randomized-schedule test is the acceptance
// pin: merged answers equal a full rebuild after every append, at pool
// widths 1/2/4/8. Runs under ThreadSanitizer ("concurrency" label); the
// failpoint cases run in every build.

#include <algorithm>
#include <atomic>
#include <latch>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "usi/core/multi_service.hpp"
#include "usi/core/update_tier.hpp"
#include "usi/core/usi_index.hpp"
#include "usi/parallel/thread_pool.hpp"
#include "usi/text/generators.hpp"
#include "usi/util/failpoint.hpp"

namespace usi {
namespace {

using testing::RandomIntegerWeighted;

/// Every test disarms every failpoint on the way out.
class UpdateTierTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }
};

TEST_F(UpdateTierTest, AppendIsVisibleImmediatelyAndExact) {
  const WeightedString seed = RandomIntegerWeighted(200, 3, 0x71);
  UsiMultiServiceOptions options;
  options.threads = 1;
  UsiMultiService service(options);
  service.SubmitText("t", seed);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);

  // Mirror of the full text the service should now be equivalent to.
  Text full = seed.text();
  std::vector<double> weights = seed.weights();
  Rng rng(0x72);
  for (int step = 0; step < 40; ++step) {
    const std::size_t len = rng.UniformInRange(1, 4);
    Text span(len);
    std::vector<double> w(len);
    for (std::size_t i = 0; i < len; ++i) {
      span[i] = static_cast<Symbol>(rng.UniformBelow(3));
      w[i] = static_cast<double>(rng.UniformInRange(1, 5));
    }
    ASSERT_EQ(service.AppendText("t", span, w), ServeStatus::kOk);
    full.insert(full.end(), span.begin(), span.end());
    weights.insert(weights.end(), w.begin(), w.end());

    // No WaitForBuilds: visibility must not depend on any build landing.
    const WeightedString current(full, weights);
    for (int trial = 0; trial < 6; ++trial) {
      const index_t m = static_cast<index_t>(rng.UniformInRange(1, 6));
      // Bias half the probes to the tail so boundary-crossing occurrences
      // are exercised on every step.
      const index_t start =
          trial % 2 == 0
              ? static_cast<index_t>(rng.UniformBelow(current.size() - m))
              : current.size() - m -
                    static_cast<index_t>(
                        rng.UniformBelow(std::min<index_t>(8, current.size() - m) + 1));
      const Text pattern = current.Fragment(start, m);
      QueryResult got;
      ASSERT_EQ(service.Query("t", pattern, got), ServeStatus::kOk);
      const QueryResult want =
          testing::BruteUtility(current, pattern, GlobalUtilityKind::kSum);
      ASSERT_EQ(got.occurrences, want.occurrences)
          << "step " << step << " start " << start << " len " << m;
      ASSERT_EQ(got.utility, want.utility)
          << "step " << step << " start " << start << " len " << m;
    }
  }
  auto stats = service.StatsFor("t");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->appends, 40u);
  ASSERT_TRUE(stats->delta.has_value());
  EXPECT_GT(stats->delta->appended, 0u);
  EXPECT_EQ(stats->delta->boundary + stats->delta->appended,
            static_cast<index_t>(full.size()));
}

TEST_F(UpdateTierTest, AppendEdgeCases) {
  UsiMultiServiceOptions options;
  options.threads = 1;
  const Text span = testing::T("ab");
  const std::vector<double> w = {1.0, 1.0};
  {
    UsiMultiService service(options);
    EXPECT_EQ(service.AppendText("nope", span, w), ServeStatus::kUnknownText);
  }
  // Before the first generation publishes there is no base to append past:
  // park the only worker so the build cannot start.
  ThreadPool pool(1);
  std::latch started(1);
  std::latch release(1);
  pool.Run([&] {
    started.count_down();
    release.wait();
  });
  started.wait();
  UsiMultiService service(&pool);
  service.SubmitText("t", RandomIntegerWeighted(100, 2, 0x73));
  EXPECT_EQ(service.AppendText("t", span, w), ServeStatus::kNotReady);
  release.count_down();
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);
  EXPECT_EQ(service.AppendText("t", span, w), ServeStatus::kOk);
}

TEST_F(UpdateTierTest, NonFiniteWeightsAreRejectedWholesale) {
  UsiMultiServiceOptions options;
  options.threads = 1;
  UsiMultiService service(options);
  const WeightedString seed = RandomIntegerWeighted(300, 3, 0x74);
  service.SubmitText("t", seed);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);
  // Warm the degraded tier so a clear would show in its cache size.
  const Text pattern = seed.Fragment(10, 3);
  QueryResult before;
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(service.Query("t", pattern, before), ServeStatus::kOk);
  }
  const auto warm = service.StatsFor("t");
  ASSERT_TRUE(warm.has_value() && warm->degraded.has_value());
  ASSERT_GT(warm->degraded->cache_size, 0u);

  const Text span = {1, 2, 0};
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    // One bad weight among good ones rejects the whole span.
    const std::vector<double> w = {1.0, bad, 2.0};
    EXPECT_EQ(service.AppendText("t", span, w),
              ServeStatus::kInvalidArgument);
    const auto stats = service.StatsFor("t");
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->appends, 0u);
    EXPECT_FALSE(stats->delta.has_value());
    EXPECT_EQ(stats->degraded->cache_size, warm->degraded->cache_size);
    QueryResult after;
    ASSERT_EQ(service.Query("t", pattern, after), ServeStatus::kOk);
    EXPECT_EQ(after.occurrences, before.occurrences);
    EXPECT_EQ(after.utility, before.utility);
  }
  // The same span with finite weights still lands.
  EXPECT_EQ(service.AppendText("t", span, std::vector<double>{1.0, 1.0, 2.0}),
            ServeStatus::kOk);
  EXPECT_EQ(service.StatsFor("t")->appends, 1u);
}

// The acceptance pin: a randomized append schedule of 10k symbols, verified
// after EVERY append against brute force over the full content (no code
// shared with the overlay's suffix tree), plus periodic full UsiIndex
// rebuilds compared with operator== — byte-equality, possible because
// integer kSum utilities are exact in double whatever the base/delta
// split. Repeated at pool widths 1, 2, 4 and 8; compactions run
// concurrently with the schedule (low threshold), so warm starts with
// appends-during-build happen organically.
TEST_F(UpdateTierTest, RandomizedScheduleMatchesFullRebuildAtEveryStep) {
  constexpr index_t kAppendTotal = 10000;
  constexpr index_t kCheckpointEvery = 2500;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    const WeightedString seed = RandomIntegerWeighted(512, 3, 0x80 + threads);
    UsiOptions build;
    build.k = 64;
    UsiMultiServiceOptions options;
    options.threads = threads;
    options.delta_compact_threshold = 1500;
    options.default_build = build;
    UsiMultiService service(options);
    service.SubmitText("t", seed);
    ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);

    Text full = seed.text();
    std::vector<double> weights = seed.weights();

    Rng rng(0x90 + threads);
    index_t appended = 0;
    index_t next_checkpoint = kCheckpointEvery;
    while (appended < kAppendTotal) {
      const std::size_t len =
          std::min<std::size_t>(rng.UniformInRange(1, 8),
                                static_cast<std::size_t>(kAppendTotal - appended));
      Text span(len);
      std::vector<double> w(len);
      for (std::size_t i = 0; i < len; ++i) {
        span[i] = static_cast<Symbol>(rng.UniformBelow(3));
        w[i] = static_cast<double>(rng.UniformInRange(1, 5));
      }
      ASSERT_EQ(service.AppendText("t", span, w), ServeStatus::kOk);
      full.insert(full.end(), span.begin(), span.end());
      weights.insert(weights.end(), w.begin(), w.end());
      appended += static_cast<index_t>(len);

      // Two probes per append: one anywhere, one pinned to the tail (the
      // crossing region a stale base would get wrong).
      const index_t total = static_cast<index_t>(full.size());
      Text patterns[2];
      {
        const index_t m = static_cast<index_t>(rng.UniformInRange(2, 10));
        const index_t start = static_cast<index_t>(rng.UniformBelow(total - m));
        patterns[0] = Text(full.begin() + start, full.begin() + start + m);
        const index_t m2 = static_cast<index_t>(rng.UniformInRange(2, 10));
        const index_t tail_start =
            total - m2 - static_cast<index_t>(rng.UniformBelow(6));
        patterns[1] = Text(full.begin() + tail_start,
                           full.begin() + tail_start + m2);
      }
      const MultiQuery queries[2] = {{"t", patterns[0]}, {"t", patterns[1]}};
      QueryResult got[2];
      ASSERT_EQ(service.QueryBatchInto(queries, got), ServeStatus::kOk);
      for (int p = 0; p < 2; ++p) {
        const QueryResult want = testing::BruteUtilityEndingPast(
            full, weights, 0, patterns[p], GlobalUtilityKind::kSum);
        ASSERT_EQ(got[p].occurrences, want.occurrences)
            << "threads " << threads << " appended " << appended;
        ASSERT_EQ(got[p].utility, want.utility)
            << "threads " << threads << " appended " << appended;
      }

      if (appended >= next_checkpoint || appended == kAppendTotal) {
        next_checkpoint += kCheckpointEvery;
        // Full-rebuild checkpoint: the merged tier must be indistinguishable
        // from an index built over the complete current content.
        const WeightedString current(full, weights);
        const UsiIndex rebuilt(current, build);
        for (int trial = 0; trial < 30; ++trial) {
          const index_t m = static_cast<index_t>(rng.UniformInRange(1, 10));
          const index_t start =
              static_cast<index_t>(rng.UniformBelow(total - m));
          const Text pattern = current.Fragment(start, m);
          QueryResult via_service;
          ASSERT_EQ(service.Query("t", pattern, via_service),
                    ServeStatus::kOk);
          const QueryResult via_rebuild = rebuilt.Query(pattern);
          ASSERT_EQ(via_service.occurrences, via_rebuild.occurrences);
          ASSERT_EQ(via_service.utility, via_rebuild.utility)
              << "threads " << threads << " checkpoint at " << appended;
        }
      }
    }
    service.WaitForBuilds();
    const auto stats = service.StatsFor("t");
    ASSERT_TRUE(stats.has_value());
    EXPECT_GT(stats->compactions, 0u)
        << "the schedule must actually exercise compaction";
    EXPECT_EQ(service.stats().appends, stats->appends);
  }
}

// The overlay on its own against brute force: its crossing answer must be
// the utility of exactly the occurrences in the full text that end past the
// boundary. Four texts (random sigma=4, XML-like, sigma=256 with symbols 0
// and 0xFF at the seam, (ab)^p), contexts 8 and 512 so both the window path
// and the long-pattern scan path answer, all four utility kinds, and the
// overlay's two lineage moves: a warm start (AppendFrom into a successor
// over a longer base) and a Rebase of the old overlay to the same boundary.
TEST_F(UpdateTierTest, OverlayCrossingMatchesBruteForce) {
  constexpr index_t kBase = 700;
  constexpr index_t kTotal = 960;
  constexpr index_t kWarmAt = 830;  // Appends before the successor forms.
  constexpr index_t kFold = 790;    // The successor's base length.
  Text wide = testing::RandomText(kTotal, 256, 0xD3);
  wide[kBase - 1] = 0x00;
  wide[kBase] = 0xFF;
  wide[kFold] = 0x00;
  wide[kTotal - 1] = 0xFF;
  const std::pair<const char*, Text> texts[] = {
      {"dna", testing::RandomText(kTotal, 4, 0xD1)},
      {"xml", MakeXmlLike(kTotal, 0xD2).text()},
      {"sigma256", wide},
      {"abab", MakePeriodic(kTotal, 2, 0xD4).text()},
  };
  const index_t lengths[] = {1, 2, 3, 5, 8, 9, 10, 13, 21, 40, 120};

  for (const auto& [name, full] : texts) {
    Rng rng(0xD5);
    std::vector<double> weights(kTotal);
    for (double& w : weights) w = static_cast<double>(rng.UniformInRange(1, 5));
    auto base_of = [&](index_t n) {
      return std::make_shared<const WeightedString>(
          Text(full.begin(), full.begin() + n),
          std::vector<double>(weights.begin(), weights.begin() + n));
    };
    const auto base = base_of(kBase);
    const auto folded = base_of(kFold);

    for (const index_t context : {8u, 512u}) {
      for (const GlobalUtilityKind kind :
           {GlobalUtilityKind::kSum, GlobalUtilityKind::kMin,
            GlobalUtilityKind::kMax, GlobalUtilityKind::kAvg}) {
        DeltaOverlay::Scratch scratch;
        auto check = [&](const DeltaOverlay& overlay, const char* which) {
          const index_t boundary = overlay.boundary();
          const auto lock = overlay.LockForRead();
          const index_t total = overlay.TotalSizeLocked();
          const std::span<const Symbol> text(full.data(), total);
          const std::span<const double> w(weights.data(), total);
          std::vector<Text> patterns = {Text{}};
          for (const index_t m : lengths) {
            if (m > total) continue;
            // Mostly crossing candidates, one from anywhere, one random.
            const index_t near = boundary >= m + 2 ? boundary - m - 2 : 0;
            for (int r = 0; r < 2; ++r) {
              const index_t s = static_cast<index_t>(
                  rng.UniformInRange(near, total - m));
              patterns.emplace_back(text.begin() + s, text.begin() + s + m);
            }
            const index_t s =
                static_cast<index_t>(rng.UniformInRange(0, total - m));
            patterns.emplace_back(text.begin() + s, text.begin() + s + m);
            Text random(m);
            for (Symbol& c : random) {
              c = text[rng.UniformBelow(total)];
            }
            patterns.push_back(std::move(random));
          }
          for (const Text& pattern : patterns) {
            const QueryResult got =
                overlay.QueryCrossingLocked(pattern, scratch);
            const QueryResult want = testing::BruteUtilityEndingPast(
                text, w, boundary, pattern, kind);
            ASSERT_EQ(got.occurrences, want.occurrences)
                << name << " " << which << " context " << context << " "
                << GlobalUtilityKindName(kind) << " m " << pattern.size()
                << " total " << total;
            ASSERT_EQ(got.utility, want.utility)
                << name << " " << which << " context " << context << " "
                << GlobalUtilityKindName(kind) << " m " << pattern.size()
                << " total " << total;
          }
        };
        auto append_up_to = [&](DeltaOverlay& overlay, index_t from,
                                index_t to) {
          const std::size_t len = to - from;
          overlay.Append(std::span<const Symbol>(full.data() + from, len),
                         std::span<const double>(weights.data() + from, len));
        };

        DeltaOverlay overlay(base, context, 1, kind);
        index_t at = kBase;
        while (at < kWarmAt) {
          const index_t next = std::min<index_t>(
              kWarmAt, at + static_cast<index_t>(rng.UniformInRange(1, 16)));
          append_up_to(overlay, at, next);
          at = next;
          check(overlay, "live");
          if (::testing::Test::HasFatalFailure()) return;
        }

        // Warm start: the successor covers [0, kFold) as its base and
        // replays the appends past it from the old overlay.
        DeltaOverlay successor(folded, context, 2, kind);
        successor.AppendFrom(overlay, kFold, at - kFold);
        check(successor, "warm-started");
        // Rebase: the old overlay hands [0, kFold) to the new generation.
        overlay.Rebase(kFold);
        check(overlay, "rebased");
        if (::testing::Test::HasFatalFailure()) return;

        while (at < kTotal) {
          const index_t next = std::min<index_t>(
              kTotal, at + static_cast<index_t>(rng.UniformInRange(1, 16)));
          append_up_to(successor, at, next);
          append_up_to(overlay, at, next);
          at = next;
          check(successor, "warm-started");
          check(overlay, "rebased");
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST_F(UpdateTierTest, LongPatternsBeyondTheWindowUseTheScanPath) {
  // delta_context shorter than the probed patterns forces the
  // verify-and-sum fallback that reads base text below the window.
  const WeightedString seed = RandomIntegerWeighted(150, 2, 0xA1);
  UsiMultiServiceOptions options;
  options.threads = 1;
  options.delta_context = 4;
  options.delta_compact_threshold = 0;  // Never compact: keep the delta live.
  UsiMultiService service(options);
  service.SubmitText("t", seed);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);

  Text full = seed.text();
  std::vector<double> weights = seed.weights();
  Rng rng(0xA2);
  for (int step = 0; step < 30; ++step) {
    const Symbol c = static_cast<Symbol>(rng.UniformBelow(2));
    const double w = static_cast<double>(rng.UniformInRange(1, 5));
    ASSERT_EQ(service.AppendText("t", Text(1, c), std::vector<double>{w}),
              ServeStatus::kOk);
    full.push_back(c);
    weights.push_back(w);
    const WeightedString current(full, weights);
    for (index_t m = 6; m <= 12; ++m) {
      // Straddle the boundary: binary alphabet makes long repeats common
      // enough that these actually occur.
      const index_t start = current.size() - m - 2;
      const Text pattern = current.Fragment(start, m);
      QueryResult got;
      ASSERT_EQ(service.Query("t", pattern, got), ServeStatus::kOk);
      const QueryResult want =
          testing::BruteUtility(current, pattern, GlobalUtilityKind::kSum);
      ASSERT_EQ(got.occurrences, want.occurrences) << "step " << step;
      ASSERT_EQ(got.utility, want.utility) << "step " << step;
    }
  }
}

TEST_F(UpdateTierTest, CompactionFoldsTheDeltaAndStaysExact) {
  const WeightedString seed = RandomIntegerWeighted(256, 3, 0xB1);
  UsiMultiServiceOptions options;
  options.threads = 2;
  options.delta_compact_threshold = 64;
  UsiMultiService service(options);
  service.SubmitText("t", seed);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);

  Text full = seed.text();
  std::vector<double> weights = seed.weights();
  Rng rng(0xB2);
  for (int step = 0; step < 200; ++step) {
    const Symbol c = static_cast<Symbol>(rng.UniformBelow(3));
    const double w = static_cast<double>(rng.UniformInRange(1, 5));
    ASSERT_EQ(service.AppendText("t", Text(1, c), std::vector<double>{w}),
              ServeStatus::kOk);
    full.push_back(c);
    weights.push_back(w);
  }
  service.WaitForBuilds();

  auto stats = service.StatsFor("t");
  ASSERT_TRUE(stats.has_value());
  EXPECT_GE(stats->compactions, 2u);
  EXPECT_GT(stats->generation, 1u) << "compactions publish real generations";
  // Appends that raced the last compaction survive in the warm-started
  // successor overlay; whatever remains is sub-threshold and accounts for
  // exactly the unfolded tail (overlay gone entirely when nothing raced).
  if (stats->delta.has_value()) {
    EXPECT_LT(stats->delta->appended, options.delta_compact_threshold);
    EXPECT_EQ(stats->delta->boundary + stats->delta->appended,
              static_cast<index_t>(full.size()));
  }
  // Either way the tier matches a from-scratch index over the full content.
  const WeightedString current(full, weights);
  const UsiIndex rebuilt(current, UsiOptions{});
  for (int trial = 0; trial < 100; ++trial) {
    const index_t m = static_cast<index_t>(rng.UniformInRange(1, 8));
    const index_t start =
        static_cast<index_t>(rng.UniformBelow(current.size() - m));
    const Text pattern = current.Fragment(start, m);
    QueryResult got;
    ASSERT_EQ(service.Query("t", pattern, got), ServeStatus::kOk);
    const QueryResult want = rebuilt.Query(pattern);
    ASSERT_EQ(got.occurrences, want.occurrences);
    ASSERT_EQ(got.utility, want.utility);
  }
}

TEST_F(UpdateTierTest, CompactionPublishSchedulesTheNextFold) {
  // The build lane's only worker is parked while 200 appends land, so the
  // compaction scheduled at append 64 publishes with 136 raced appends in
  // its successor overlay, over the threshold of 64. Nothing appends after
  // that: the publish itself must schedule the next fold, and one
  // WaitForBuilds must wait for it too.
  const WeightedString seed = RandomIntegerWeighted(256, 3, 0xB5);
  UsiMultiServiceOptions options;
  options.delta_compact_threshold = 64;
  ThreadPool pool(1);
  UsiMultiService service(&pool, options);
  service.SubmitText("t", seed);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);

  std::latch started(1);
  std::latch release(1);
  pool.Run([&] {
    started.count_down();
    release.wait();
  });
  started.wait();
  Text full = seed.text();
  std::vector<double> weights = seed.weights();
  Rng rng(0xB6);
  int rejected = 0;  // No ASSERT while the worker is parked: it would hang.
  for (int step = 0; step < 200; ++step) {
    const Symbol c = static_cast<Symbol>(rng.UniformBelow(3));
    const double w = static_cast<double>(rng.UniformInRange(1, 5));
    rejected += service.AppendText("t", Text(1, c), std::vector<double>{w}) !=
                ServeStatus::kOk;
    full.push_back(c);
    weights.push_back(w);
  }
  release.count_down();
  ASSERT_EQ(rejected, 0);
  service.WaitForBuilds();

  const auto stats = service.StatsFor("t");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->compactions, 2u);
  EXPECT_FALSE(stats->delta.has_value())
      << "appended " << stats->delta->appended << " left past the threshold";
  EXPECT_EQ(service.TextState("t"), BuildState::kReady);
  const WeightedString current(full, weights);
  for (int trial = 0; trial < 50; ++trial) {
    const index_t m = static_cast<index_t>(rng.UniformInRange(1, 6));
    const index_t start =
        static_cast<index_t>(rng.UniformBelow(current.size() - m));
    const Text pattern = current.Fragment(start, m);
    QueryResult got;
    ASSERT_EQ(service.Query("t", pattern, got), ServeStatus::kOk);
    const QueryResult want =
        testing::BruteUtility(current, pattern, GlobalUtilityKind::kSum);
    ASSERT_EQ(got.occurrences, want.occurrences) << "trial " << trial;
    ASSERT_EQ(got.utility, want.utility) << "trial " << trial;
  }
}

TEST_F(UpdateTierTest, EmptyAppendChangesNothing) {
  const WeightedString seed = RandomIntegerWeighted(200, 3, 0xE1);
  UsiMultiServiceOptions options;
  options.threads = 1;
  UsiMultiService service(options);
  const std::span<const Symbol> no_text;
  const std::span<const double> no_weights;
  EXPECT_EQ(service.AppendText("t", no_text, no_weights),
            ServeStatus::kUnknownText);
  service.SubmitText("t", seed);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);

  // Warm the degraded tier with one exact batch.
  std::vector<Text> patterns;
  for (index_t i = 0; i < 20; ++i) patterns.push_back(seed.Fragment(i * 7, 3));
  std::vector<MultiQuery> queries;
  for (const Text& p : patterns) queries.push_back({"t", p});
  std::vector<QueryResult> results(queries.size());
  ASSERT_EQ(service.QueryBatchInto(queries, results), ServeStatus::kOk);
  const auto warm = service.StatsFor("t");
  ASSERT_TRUE(warm.has_value() && warm->degraded.has_value());
  ASSERT_GT(warm->degraded->cache_size, 0u);

  // The content did not change: no overlay, no count, no learned answer
  // dropped.
  EXPECT_EQ(service.AppendText("t", no_text, no_weights), ServeStatus::kOk);
  const auto after = service.StatsFor("t");
  ASSERT_TRUE(after.has_value() && after->degraded.has_value());
  EXPECT_EQ(after->degraded->cache_size, warm->degraded->cache_size);
  EXPECT_EQ(after->appends, 0u);
  EXPECT_FALSE(after->delta.has_value());
  EXPECT_EQ(service.stats().appends, 0u);
}

TEST_F(UpdateTierTest, CompactionUnderLoadNeverShowsATornView) {
  // Readers hammer a batch of {"ab", "ba", "aa"} while a writer appends
  // whole "ab" pairs and compactions cycle underneath (tiny threshold).
  // Invariants every admitted batch must satisfy on (ab)^p content:
  //   occ("ab") == occ("ba") + 1   (torn half-pair or mixed snapshot breaks
  //                                 this: text ending in a lone 'a' gives
  //                                 occ("ab") == occ("ba"))
  //   occ("aa") == 0
  //   utility("ab") == 2 * occ("ab")  (uniform weight 1, kSum)
  //   occ("ab") non-decreasing per reader (appends only grow the text;
  //                                 compaction must not lose or replay any)
  constexpr index_t kBasePairs = 64;
  constexpr int kWriterPairs = 400;
  Text base;
  for (index_t i = 0; i < kBasePairs; ++i) {
    base.push_back(static_cast<Symbol>('a'));
    base.push_back(static_cast<Symbol>('b'));
  }
  UsiMultiServiceOptions options;
  options.threads = 4;
  options.delta_compact_threshold = 64;
  UsiMultiService service(options);
  service.SubmitText("t", WeightedString::WithUniformWeights(base, 1.0));
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);

  const Text pat_ab = testing::T("ab");
  const Text pat_ba = testing::T("ba");
  const Text pat_aa = testing::T("aa");
  std::atomic<u64> violations{0};
  std::atomic<u64> failed{0};
  std::atomic<bool> writer_done{false};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      index_t last_ab = 0;
      while (!writer_done.load(std::memory_order_acquire)) {
        const MultiQuery queries[3] = {
            {"t", pat_ab}, {"t", pat_ba}, {"t", pat_aa}};
        QueryResult got[3];
        if (service.QueryBatchInto(queries, got) != ServeStatus::kOk) {
          failed.fetch_add(1);
          continue;
        }
        const index_t ab = got[0].occurrences;
        if (got[1].occurrences + 1 != ab) violations.fetch_add(1);
        if (got[2].occurrences != 0) violations.fetch_add(1);
        if (got[0].utility != 2.0 * static_cast<double>(ab)) {
          violations.fetch_add(1);
        }
        if (ab < last_ab || ab < kBasePairs ||
            ab > kBasePairs + kWriterPairs) {
          violations.fetch_add(1);
        }
        last_ab = ab;
      }
    });
  }
  std::thread writer([&] {
    const Text pair = testing::T("ab");
    const std::vector<double> w = {1.0, 1.0};
    for (int i = 0; i < kWriterPairs; ++i) {
      if (service.AppendText("t", pair, w) != ServeStatus::kOk) {
        failed.fetch_add(1);
      }
    }
    writer_done.store(true, std::memory_order_release);
  });
  writer.join();
  for (std::thread& reader : readers) reader.join();
  service.WaitForBuilds();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_EQ(failed.load(), 0u);
  QueryResult final_ab;
  ASSERT_EQ(service.Query("t", pat_ab, final_ab), ServeStatus::kOk);
  EXPECT_EQ(final_ab.occurrences, kBasePairs + kWriterPairs);
  const auto stats = service.StatsFor("t");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->appends, static_cast<u64>(kWriterPairs));
  EXPECT_GE(stats->compactions, 1u);
}

TEST_F(UpdateTierTest, FullContentReplacementDropsTheDelta) {
  const WeightedString v1 = RandomIntegerWeighted(200, 3, 0xC1);
  const WeightedString v2 = RandomIntegerWeighted(180, 3, 0xC2);
  UsiMultiServiceOptions options;
  options.threads = 1;
  options.delta_compact_threshold = 0;
  UsiMultiService service(options);
  service.SubmitText("t", v1);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);

  const Text span = testing::T("xyz");
  const std::vector<double> w = {2.0, 2.0, 2.0};
  ASSERT_EQ(service.AppendText("t", span, w), ServeStatus::kOk);
  ASSERT_TRUE(service.StatsFor("t")->delta.has_value());

  service.UpdateText("t", v2);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);
  EXPECT_FALSE(service.StatsFor("t")->delta.has_value());
  // Answers describe v2 alone — the appended "xyz" is gone with v1.
  QueryResult got;
  ASSERT_EQ(service.Query("t", span, got), ServeStatus::kOk);
  EXPECT_EQ(got.occurrences, 0u);
  const Text probe = v2.Fragment(10, 4);
  ASSERT_EQ(service.Query("t", probe, got), ServeStatus::kOk);
  const QueryResult want =
      testing::BruteUtility(v2, probe, GlobalUtilityKind::kSum);
  EXPECT_EQ(got.occurrences, want.occurrences);
  EXPECT_EQ(got.utility, want.utility);
}

TEST_F(UpdateTierTest, PerTextBuildOptionsFollowAppendAndUpdate) {
  const WeightedString seed = RandomIntegerWeighted(400, 3, 0xD1);
  UsiOptions initial;
  initial.k = 64;
  UsiMultiServiceOptions options;
  options.threads = 1;
  options.delta_compact_threshold = 16;
  UsiMultiService service(options);
  service.SubmitText("t", seed, initial);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);
  EXPECT_EQ(service.StatsFor("t")->last_build.k, 64u);

  // Re-optioning before an append run: the compaction the run triggers
  // must build with the new K.
  UsiOptions appended_options;
  appended_options.k = 24;
  ASSERT_TRUE(service.SetBuildOptions("t", appended_options));
  const Text one = testing::T("a");
  const std::vector<double> w = {1.0};
  for (int i = 0; i < 16; ++i) {
    ASSERT_EQ(service.AppendText("t", one, w), ServeStatus::kOk);
  }
  service.WaitForBuilds();
  auto stats = service.StatsFor("t");
  ASSERT_TRUE(stats.has_value());
  ASSERT_GE(stats->compactions, 1u);
  EXPECT_EQ(stats->last_build.k, 24u);

  // SetBuildOptions alone re-options without scheduling; the next plain
  // UpdateText builds with it.
  UsiOptions set_options;
  set_options.k = 12;
  EXPECT_TRUE(service.SetBuildOptions("t", set_options));
  EXPECT_FALSE(service.SetBuildOptions("nope", set_options));
  service.UpdateText("t", RandomIntegerWeighted(300, 3, 0xD2));
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);
  EXPECT_EQ(service.StatsFor("t")->last_build.k, 12u);

  // Re-optioning right before an UpdateText: the rebuild uses the newest
  // options.
  UsiOptions update_options;
  update_options.k = 40;
  ASSERT_TRUE(service.SetBuildOptions("t", update_options));
  service.UpdateText("t", RandomIntegerWeighted(300, 3, 0xD3));
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);
  EXPECT_EQ(service.StatsFor("t")->last_build.k, 40u);
}

TEST_F(UpdateTierTest, MultiLaneExecutorBuildsManyTextsCorrectly) {
  constexpr int kTexts = 6;
  UsiOptions build;
  build.k = 32;
  UsiMultiServiceOptions options;
  options.threads = 4;
  options.build_lanes = 3;
  options.default_build = build;
  UsiMultiService service(options);

  const std::vector<std::string> ids = {"t0", "t1", "t2", "t3", "t4", "t5"};
  ASSERT_EQ(ids.size(), static_cast<std::size_t>(kTexts));
  std::vector<WeightedString> texts;
  for (int i = 0; i < kTexts; ++i) {
    texts.push_back(RandomIntegerWeighted(400 + 50 * i, 3, 0xE0 + i));
    service.SubmitText(ids[i], texts.back());
  }
  service.WaitForBuilds();
  EXPECT_EQ(service.stats().builds_completed, static_cast<u64>(kTexts));

  // Every text serves the answers its own direct index gives — lanes never
  // cross-publish.
  Rng rng(0xEE);
  for (int i = 0; i < kTexts; ++i) {
    const UsiIndex direct(texts[i], build);
    for (int trial = 0; trial < 30; ++trial) {
      const index_t m = static_cast<index_t>(rng.UniformInRange(1, 6));
      const index_t start =
          static_cast<index_t>(rng.UniformBelow(texts[i].size() - m));
      const Text pattern = texts[i].Fragment(start, m);
      QueryResult got;
      ASSERT_EQ(service.Query(ids[i], pattern, got),
                ServeStatus::kOk);
      const QueryResult want = direct.Query(pattern);
      ASSERT_EQ(got.occurrences, want.occurrences) << "text " << i;
      ASSERT_EQ(got.utility, want.utility) << "text " << i;
    }
  }

  // Update every text at once: the wide executor drains them all and each
  // text's generations stay sequential (monotonic generation per text).
  for (int i = 0; i < kTexts; ++i) {
    service.UpdateText(ids[i], RandomIntegerWeighted(300, 3, 0xF0 + i));
  }
  service.WaitForBuilds();
  for (int i = 0; i < kTexts; ++i) {
    const auto stats = service.StatsFor(ids[i]);
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->generation, 2u);
    EXPECT_EQ(stats->builds_completed, 2u);
  }
}

TEST_F(UpdateTierTest, ChaosAppendFailpointRejectsWithoutCorruption) {
  const WeightedString seed = RandomIntegerWeighted(128, 2, 0x101);
  UsiMultiServiceOptions options;
  options.threads = 1;
  UsiMultiService service(options);
  service.SubmitText("t", seed);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);

  const Text span = testing::T("ab");
  const std::vector<double> w = {1.0, 1.0};
  ASSERT_EQ(service.AppendText("t", span, w), ServeStatus::kOk);

  // The failpoint sits BEFORE any mutation: the rejected span must leave
  // the overlay exactly as it was.
  failpoint::Arm("delta.append", failpoint::Action::kThrow, /*fires=*/1);
  EXPECT_EQ(service.AppendText("t", span, w), ServeStatus::kIndexUnavailable);

  Text full = seed.text();
  std::vector<double> weights = seed.weights();
  full.insert(full.end(), span.begin(), span.end());
  weights.insert(weights.end(), w.begin(), w.end());
  const WeightedString current(full, weights);
  QueryResult got;
  ASSERT_EQ(service.Query("t", span, got), ServeStatus::kOk);
  const QueryResult want =
      testing::BruteUtility(current, span, GlobalUtilityKind::kSum);
  EXPECT_EQ(got.occurrences, want.occurrences);
  EXPECT_EQ(got.utility, want.utility);

  // Disarmed (fires=1 exhausted): appends resume on the same overlay.
  EXPECT_EQ(service.AppendText("t", span, w), ServeStatus::kOk);
  const auto stats = service.StatsFor("t");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->appends, 2u) << "the rejected span must not count";
  ASSERT_TRUE(stats->delta.has_value());
  EXPECT_EQ(stats->delta->appended, 4u);
}

TEST_F(UpdateTierTest, ChaosFailedCompactionQuarantinesWhileDeltaServes) {
  const WeightedString seed = RandomIntegerWeighted(128, 3, 0x111);
  UsiMultiServiceOptions options;
  options.threads = 1;
  options.delta_compact_threshold = 32;
  options.max_build_retries = 0;  // Straight to quarantine.
  UsiMultiService service(options);
  service.SubmitText("t", seed);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);

  failpoint::Arm("compact.swap", failpoint::Action::kThrow);
  Text full = seed.text();
  std::vector<double> weights = seed.weights();
  Rng rng(0x112);
  for (int i = 0; i < 32; ++i) {
    const Symbol c = static_cast<Symbol>(rng.UniformBelow(3));
    const double w = static_cast<double>(rng.UniformInRange(1, 5));
    ASSERT_EQ(service.AppendText("t", Text(1, c), std::vector<double>{w}),
              ServeStatus::kOk);
    full.push_back(c);
    weights.push_back(w);
  }
  // The scheduled compaction fails terminally; the entry is quarantined as
  // kFailed per the PR 8 semantics...
  EXPECT_EQ(service.WaitForText("t"), BuildState::kFailed);
  EXPECT_GE(service.StatsFor("t")->builds_failed, 1u);
  EXPECT_EQ(service.StatsFor("t")->compactions, 0u);

  // ...but the old base + delta keep serving exact answers, and further
  // appends keep landing.
  const Text extra = testing::T("zz");
  const std::vector<double> wz = {3.0, 3.0};
  ASSERT_EQ(service.AppendText("t", extra, wz), ServeStatus::kOk);
  full.insert(full.end(), extra.begin(), extra.end());
  weights.insert(weights.end(), wz.begin(), wz.end());
  service.WaitForBuilds();  // Drain the re-triggered (failing) compactions.
  const WeightedString current(full, weights);
  for (int trial = 0; trial < 50; ++trial) {
    const index_t m = static_cast<index_t>(rng.UniformInRange(1, 6));
    const index_t start =
        static_cast<index_t>(rng.UniformBelow(current.size() - m));
    const Text pattern = current.Fragment(start, m);
    QueryResult got;
    ASSERT_EQ(service.Query("t", pattern, got), ServeStatus::kOk);
    const QueryResult want =
        testing::BruteUtility(current, pattern, GlobalUtilityKind::kSum);
    ASSERT_EQ(got.occurrences, want.occurrences);
    ASSERT_EQ(got.utility, want.utility);
  }

  // Heal the lane: the next threshold-crossing append compacts for real.
  failpoint::DisarmAll();
  const Text heal = testing::T("q");
  const std::vector<double> wq = {1.0};
  ASSERT_EQ(service.AppendText("t", heal, wq), ServeStatus::kOk);
  service.WaitForBuilds();
  const auto stats = service.StatsFor("t");
  ASSERT_TRUE(stats.has_value());
  EXPECT_GE(stats->compactions, 1u);
  EXPECT_EQ(service.WaitForText("t"), BuildState::kReady);
}

TEST_F(UpdateTierTest, ChaosWarmstartFailureFallsBackToRebase) {
  const WeightedString seed = RandomIntegerWeighted(128, 3, 0x121);
  const index_t n0 = seed.size();
  UsiMultiServiceOptions options;
  options.threads = 1;
  options.delta_compact_threshold = 32;
  options.max_build_retries = 1;
  // Generous backoff: the window in which the appends below land "during
  // the build" (between the failed first attempt and the retry).
  options.build_retry_backoff_ms = 500;
  UsiMultiService service(options);
  service.SubmitText("t", seed);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);

  // First compaction attempt fails fast; while it backs off, more appends
  // land, so the eventual publish has pending appends to carry over — and
  // the armed warmstart failpoint forces the Rebase containment path.
  failpoint::Arm("compact.swap", failpoint::Action::kThrow, /*fires=*/1);
  failpoint::Arm("compact.warmstart", failpoint::Action::kError);
  Text full = seed.text();
  std::vector<double> weights = seed.weights();
  Rng rng(0x122);
  const auto append_one = [&] {
    const Symbol c = static_cast<Symbol>(rng.UniformBelow(3));
    const double w = static_cast<double>(rng.UniformInRange(1, 5));
    ASSERT_EQ(service.AppendText("t", Text(1, c), std::vector<double>{w}),
              ServeStatus::kOk);
    full.push_back(c);
    weights.push_back(w);
  };
  for (int i = 0; i < 32; ++i) append_one();  // Triggers the compaction.
  for (int i = 0; i < 8; ++i) append_one();   // Lands during the backoff.
  service.WaitForBuilds();

  auto stats = service.StatsFor("t");
  ASSERT_TRUE(stats.has_value());
  ASSERT_EQ(stats->compactions, 1u);
  EXPECT_EQ(stats->build_retries, 1u);
  // Rebase kept the old overlay: the boundary moved to the fold point, the
  // 8 raced appends are still pending, and the window is the rebased one
  // (old window + folded span), not a reseeded delta_context.
  ASSERT_TRUE(stats->delta.has_value());
  EXPECT_EQ(stats->delta->boundary, n0 + 32);
  EXPECT_EQ(stats->delta->appended, 8u);

  // Still exact through the rebased overlay.
  const WeightedString current(full, weights);
  for (int trial = 0; trial < 50; ++trial) {
    const index_t m = static_cast<index_t>(rng.UniformInRange(1, 6));
    const index_t start =
        static_cast<index_t>(rng.UniformBelow(current.size() - m));
    const Text pattern = current.Fragment(start, m);
    QueryResult got;
    ASSERT_EQ(service.Query("t", pattern, got), ServeStatus::kOk);
    const QueryResult want =
        testing::BruteUtility(current, pattern, GlobalUtilityKind::kSum);
    ASSERT_EQ(got.occurrences, want.occurrences) << "trial " << trial;
    ASSERT_EQ(got.utility, want.utility) << "trial " << trial;
  }

  // With the failpoint gone the next compaction warm-starts normally and
  // clears the overlay (nothing raced it).
  failpoint::DisarmAll();
  for (int i = 0; i < 24; ++i) append_one();  // 8 pending + 24 = threshold.
  service.WaitForBuilds();
  stats = service.StatsFor("t");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->compactions, 2u);
  EXPECT_FALSE(stats->delta.has_value());
  QueryResult got;
  const Text probe = WeightedString(full, weights).Fragment(full.size() - 6, 5);
  ASSERT_EQ(service.Query("t", probe, got), ServeStatus::kOk);
  const QueryResult want = testing::BruteUtility(
      WeightedString(full, weights), probe, GlobalUtilityKind::kSum);
  EXPECT_EQ(got.occurrences, want.occurrences);
  EXPECT_EQ(got.utility, want.utility);
}

}  // namespace
}  // namespace usi
