// Pins the "allocation-free steady state" contract of the query hot path:
// once the serving thread's scratch has warmed up to a workload's batch
// shape, repeated QueryBatchInto calls — hash hits AND SA + PSW fallback
// misses, and the first batch after a generation publish — perform zero
// heap allocations, and so does QueryAllWindows.
// The whole test binary counts operator new invocations; the suite asserts
// the count stays flat across steady-state batches. Each thread also counts
// the bytes it allocated, for the cases that bound a path's size rather
// than its count.

#include <atomic>
#include <cstdlib>
#include <cstdio>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "usi/core/degraded_tier.hpp"
#include "usi/core/multi_service.hpp"
#include "usi/core/usi_index.hpp"
#include "usi/core/usi_service.hpp"
#include "usi/util/failpoint.hpp"

namespace {

std::atomic<std::size_t> g_allocation_count{0};
thread_local std::size_t t_allocated_bytes = 0;

void* CountedAlloc(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  t_allocated_bytes += size;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
// The nothrow forms must be replaced too (libstdc++'s temporary buffers use
// them): every allocation has to route through malloc so the plain
// operator delete below frees consistently.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  t_allocated_bytes += size;
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  t_allocated_bytes += size;
  return std::malloc(size ? size : 1);
}
// Aligned forms too: FingerprintTable's CacheAlignedAllocator allocates
// through them, and the table is exactly the structure whose steady state
// this suite pins.
namespace {
void* CountedAlignedAlloc(std::size_t size, std::size_t align) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  t_allocated_bytes += size;
  const std::size_t rounded = (size + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, rounded ? rounded : align)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace usi {
namespace {

std::size_t AllocationsNow() {
  return g_allocation_count.load(std::memory_order_relaxed);
}

TEST(QueryAlloc, CounterSeesVectorAllocations) {
  // Guard: if the replacement operator new ever stops being linked in,
  // every steady-state assertion below would pass vacuously.
  const std::size_t before = AllocationsNow();
  std::vector<int>* v = new std::vector<int>(100);
  const std::size_t after = AllocationsNow();
  delete v;
  EXPECT_GT(after, before);
}

TEST(QueryAlloc, SteadyStateQueryBatchIntoAllocatesNothing) {
  const WeightedString ws = testing::RandomWeighted(2'000, 4, 0xA110C);
  UsiOptions options;
  options.k = 100;
  UsiIndex index(ws, options);

  UsiServiceOptions service_options;
  service_options.threads = 1;
  UsiService service(index, service_options);

  // Mixed batch: frequent substrings (H hits), rare substrings (SA + PSW
  // fallback) and absent patterns (fallback, zero occurrences) — the miss
  // path must be as allocation-free as the hit path.
  Rng rng(0x5EED);
  std::vector<Text> patterns;
  for (int i = 0; i < 400; ++i) {
    const index_t start = static_cast<index_t>(rng.UniformBelow(ws.size()));
    const index_t max_len = std::min<index_t>(16, ws.size() - start);
    patterns.push_back(ws.Fragment(
        start, static_cast<index_t>(rng.UniformInRange(1, max_len))));
  }
  for (int i = 0; i < 100; ++i) {
    patterns.push_back(
        Text(static_cast<std::size_t>(rng.UniformInRange(1, 12)),
             static_cast<Symbol>(250)));  // Never occurs: always a miss.
  }
  // The borrowed views are built once, outside the counted region: the
  // caller owns them, as a request decoder would.
  const std::vector<PatternSpan> spans = AsPatternSpans(patterns);
  std::vector<QueryResult> results(patterns.size());

  // Warm-up: grows the thread's scratch and any lazy buffers.
  service.QueryBatchInto(spans, results);
  service.QueryBatchInto(spans, results);

  std::size_t miss_count = 0;
  for (const QueryResult& r : results) miss_count += r.from_hash_table ? 0 : 1;
  ASSERT_GT(miss_count, 100u) << "workload must exercise the fallback path";

  const std::size_t before = AllocationsNow();
  for (int round = 0; round < 5; ++round) {
    service.QueryBatchInto(spans, results);
  }
  const std::size_t after = AllocationsNow();
  EXPECT_EQ(after, before)
      << "steady-state QueryBatchInto must not touch the heap";
}

TEST(QueryAlloc, DegradedTierRecordAndLookupAllocateNothing) {
  // The exact path records every answered group into the tier, so the tier
  // shares the hot path's contract: all structures are sized at
  // construction, and steady-state records (per answer AND per batch, whose
  // chunk scratch lives on the stack), degraded lookups and Clear never
  // touch the heap.
  DegradedTier tier;
  Rng rng(0x7EE4);
  std::vector<Text> patterns;
  std::vector<PatternKey> keys;
  std::vector<QueryResult> answers;
  for (int i = 0; i < 2'000; ++i) {
    Text pattern;
    const std::size_t len = 2 + rng.UniformBelow(i % 100 == 0 ? 600 : 14);
    for (std::size_t j = 0; j < len; ++j) {
      pattern.push_back(static_cast<Symbol>(rng.UniformBelow(16)));
    }
    keys.push_back(DegradedTier::KeyFor(pattern));
    patterns.push_back(std::move(pattern));
    QueryResult answer;
    answer.utility = rng.UniformDouble() * 5.0;
    answer.occurrences = static_cast<index_t>(1 + rng.UniformBelow(9));
    answers.push_back(answer);
  }
  const std::vector<PatternSpan> spans(patterns.begin(), patterns.end());

  for (std::size_t i = 0; i < keys.size(); ++i) {  // Warm-up.
    tier.RecordExact(keys[i], answers[i]);
  }

  const std::size_t before = AllocationsNow();
  QueryResult out;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      tier.RecordExact(keys[i], answers[i]);
      tier.TryAnswer(keys[i], &out);
    }
    // Group shapes around the chunk size, plus the whole stream at once.
    for (const std::size_t group : {1u, 31u, 32u, 33u, 2'000u}) {
      tier.RecordExactBatch(std::span<const PatternSpan>(spans).first(group),
                            std::span<const QueryResult>(answers).first(group),
                            tier.epoch());
    }
    tier.Clear();
  }
  const std::size_t after = AllocationsNow();
  EXPECT_EQ(after, before)
      << "steady-state tier traffic must not touch the heap";
  EXPECT_GT(tier.stats().records, 3u * keys.size());
}

TEST(QueryAlloc, SteadyStateServeWithDeltaAllocatesNothing) {
  // The update tier extends the contract: a batch served through a pinned
  // (generation, delta overlay) pair — base answers merged with crossing
  // probes — must also be heap-silent once the routing groups, the
  // UsiService scratch and the overlay's crossing buffers are warm.
  UsiMultiServiceOptions options;
  options.threads = 1;  // Inline serving: the measured path is this thread.
  options.delta_compact_threshold = 0;  // Keep the overlay live throughout.
  UsiMultiService service(options);
  const WeightedString ws = testing::RandomWeighted(2'000, 4, 0xDE17A);
  service.SubmitText("t", ws);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);

  Rng rng(0xDE17B);
  const std::vector<double> one_weight = {1.0};
  Text one_symbol(1, Symbol{0});
  for (int i = 0; i < 200; ++i) {
    one_symbol[0] = static_cast<Symbol>(rng.UniformBelow(4));
    ASSERT_EQ(service.AppendText("t", one_symbol, one_weight),
              ServeStatus::kOk);
  }
  ASSERT_TRUE(service.StatsFor("t")->delta.has_value());

  // Mixed batch: base-only patterns, tail patterns whose occurrences cross
  // the boundary (the merge path), and absent patterns.
  std::vector<Text> patterns;
  for (int i = 0; i < 200; ++i) {
    const index_t start = static_cast<index_t>(rng.UniformBelow(ws.size()));
    const index_t max_len = std::min<index_t>(12, ws.size() - start);
    patterns.push_back(ws.Fragment(
        start, static_cast<index_t>(rng.UniformInRange(1, max_len))));
  }
  for (int i = 0; i < 100; ++i) {
    patterns.push_back(Text(static_cast<std::size_t>(rng.UniformInRange(1, 4)),
                            static_cast<Symbol>(rng.UniformBelow(4))));
  }
  for (int i = 0; i < 50; ++i) {
    patterns.push_back(
        Text(static_cast<std::size_t>(rng.UniformInRange(1, 12)),
             static_cast<Symbol>(250)));  // Never occurs.
  }
  std::vector<MultiQuery> queries;
  for (const Text& p : patterns) queries.push_back({"t", p});
  std::vector<QueryResult> results(queries.size());

  service.QueryBatchInto(queries, results);  // Warm-up.
  service.QueryBatchInto(queries, results);

  const std::size_t before = AllocationsNow();
  for (int round = 0; round < 5; ++round) {
    ASSERT_EQ(service.QueryBatchInto(queries, results), ServeStatus::kOk);
  }
  const std::size_t after = AllocationsNow();
  EXPECT_EQ(after, before)
      << "steady-state serve-with-delta must not touch the heap";
}

TEST(QueryAlloc, FirstBatchAfterPublishAllocatesNothing) {
  // A publish swaps in a new generation with its own UsiService. The
  // serving scratch belongs to the thread, not to the service, so the first
  // batch against the new generation finds its buffers already warm.
  UsiMultiServiceOptions options;
  options.threads = 1;  // Inline serving: the measured path is this thread.
  UsiMultiService service(options);
  const WeightedString ws = testing::RandomWeighted(2'000, 4, 0x9B1D);
  service.SubmitText("t", ws);
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);

  Rng rng(0x9B1E);
  std::vector<Text> patterns;
  for (int i = 0; i < 200; ++i) {
    const index_t start = static_cast<index_t>(rng.UniformBelow(ws.size()));
    const index_t max_len = std::min<index_t>(12, ws.size() - start);
    patterns.push_back(ws.Fragment(
        start, static_cast<index_t>(rng.UniformInRange(1, max_len))));
  }
  std::vector<MultiQuery> queries;
  for (const Text& p : patterns) queries.push_back({"t", p});
  std::vector<QueryResult> results(queries.size());

  service.QueryBatchInto(queries, results);  // Warm-up.
  service.QueryBatchInto(queries, results);

  for (int round = 0; round < 3; ++round) {
    service.UpdateText("t", ws);
    ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);
    const std::size_t before = AllocationsNow();
    const ServeStatus status = service.QueryBatchInto(queries, results);
    const std::size_t after = AllocationsNow();
    ASSERT_EQ(status, ServeStatus::kOk);
    EXPECT_EQ(after, before)
        << "the first batch after publish " << round << " touched the heap";
  }
  EXPECT_EQ(service.StatsFor("t")->generation, 4u);
}

TEST(QueryAlloc, MappedFaultDemotionSharesTheText) {
  // A mapped generation that faults mid-serve is demoted, and its recovery
  // is scheduled by the batch that saw the fault. The recovery job shares
  // the generation's text, so that query thread allocates nothing O(n);
  // copying the WeightedString would cost it 9 bytes per symbol.
  constexpr index_t kN = 50'000;
  const WeightedString ws = testing::RandomWeighted(kN, 4, 0xFA17);
  const std::string path = ::testing::TempDir() + "query_alloc_fault.usi";
  ASSERT_TRUE(UsiIndex(ws, UsiOptions{}).SaveToFile(path));
  UsiMultiServiceOptions options;
  options.threads = 1;  // Inline serving: the faulting batch is this thread.
  UsiMultiService service(options);
  ASSERT_NE(service.RegisterTextFromFile("t", ws, path), 0u);

  const Text pattern = ws.Fragment(100, 4);
  const MultiQuery query{"t", pattern};
  QueryResult result;
  ASSERT_EQ(service.QueryBatchInto(std::span(&query, 1), std::span(&result, 1)),
            ServeStatus::kOk);  // Warm-up.
  const QueryResult want = result;

  failpoint::Arm("serve.mapped_fault", failpoint::Action::kError, /*fires=*/1);
  // Counts the recovery's heap read without ever failing it.
  failpoint::Spec count_only;
  count_only.action = failpoint::Action::kError;
  count_only.percent = 0;
  failpoint::Arm("load.heap", count_only);
  const std::size_t before = t_allocated_bytes;
  const ServeStatus status =
      service.QueryBatchInto(std::span(&query, 1), std::span(&result, 1));
  const std::size_t bytes = t_allocated_bytes - before;
  EXPECT_EQ(status, ServeStatus::kIndexUnavailable);
  EXPECT_LT(bytes, static_cast<std::size_t>(kN))
      << "the faulting batch copied O(n) bytes";

  EXPECT_EQ(service.WaitForText("t"), BuildState::kReady);
  EXPECT_EQ(failpoint::HitCount("load.heap"), 1u)
      << "recovery must be the heap read of the source file";
  EXPECT_EQ(failpoint::FireCount("load.heap"), 0u);
  failpoint::DisarmAll();
  ASSERT_EQ(service.QueryBatchInto(std::span(&query, 1), std::span(&result, 1)),
            ServeStatus::kOk);
  EXPECT_EQ(result.occurrences, want.occurrences);
  EXPECT_EQ(result.utility, want.utility);
  std::remove(path.c_str());
}

TEST(QueryAlloc, AppendPathAllocationsStayBounded) {
  // AppendText cannot be allocation-free (the overlay's suffix tree grows
  // nodes as structure demands), but after warm-up its footprint must stay
  // a small bounded number of allocations per appended symbol — no
  // per-append rebuild of anything O(window) or O(text).
  UsiMultiServiceOptions options;
  options.threads = 1;
  options.delta_compact_threshold = 0;  // No compactions mid-measurement.
  UsiMultiService service(options);
  service.SubmitText("t", testing::RandomWeighted(1'000, 3, 0xAB3D));
  ASSERT_EQ(service.WaitForText("t"), BuildState::kReady);

  Rng rng(0xAB3E);
  const std::vector<double> one_weight = {1.0};
  Text one_symbol(1, Symbol{0});
  for (int i = 0; i < 256; ++i) {  // Warm-up: overlay exists and has grown.
    one_symbol[0] = static_cast<Symbol>(rng.UniformBelow(3));
    ASSERT_EQ(service.AppendText("t", one_symbol, one_weight),
              ServeStatus::kOk);
  }

  constexpr std::size_t kMeasured = 64;
  const std::size_t before = AllocationsNow();
  for (std::size_t i = 0; i < kMeasured; ++i) {
    one_symbol[0] = static_cast<Symbol>(rng.UniformBelow(3));
    ASSERT_EQ(service.AppendText("t", one_symbol, one_weight),
              ServeStatus::kOk);
  }
  const std::size_t after = AllocationsNow();
  // Measured: 61 allocations for these 64 symbols — the tree's node array
  // and child lists; a split node reserves both of its children at once.
  EXPECT_LE(after - before, kMeasured * 1)
      << "append path regressed to > 1 allocation per symbol";
}

TEST(QueryAlloc, SteadyStateQueryAllWindowsAllocatesNothing) {
  const WeightedString ws = testing::RandomWeighted(1'500, 3, 0xD0C5);
  UsiOptions options;
  options.k = 80;
  UsiIndex index(ws, options);

  Text document(ws.text().begin(), ws.text().begin() + 800);
  for (int i = 0; i < 50; ++i) document.push_back(static_cast<Symbol>(240));
  const index_t window_len = 9;
  std::vector<QueryResult> results(document.size() - window_len + 1);

  index.QueryAllWindows(document, window_len, results);  // Warm-up.

  const std::size_t before = AllocationsNow();
  for (int round = 0; round < 5; ++round) {
    index.QueryAllWindows(document, window_len, results);
  }
  const std::size_t after = AllocationsNow();
  EXPECT_EQ(after, before)
      << "steady-state QueryAllWindows must not touch the heap";
}

}  // namespace
}  // namespace usi
