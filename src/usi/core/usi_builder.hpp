#ifndef USI_CORE_USI_BUILDER_HPP_
#define USI_CORE_USI_BUILDER_HPP_

/// \file usi_builder.hpp
/// Staged, instrumented construction pipeline for UsiIndex.
///
/// Construction decomposes into explicit stages — "sa" (SA-IS over the
/// text), "mine" (phase (i) top-K mining), "table" (phase (ii): one
/// SA-order sweep that aggregates every mined substring's occurrences into
/// H), "learn" (the PLA last-mile model fit over the finished SA;
/// learned_sa.hpp) and "finalize" (the image's header, then sealing it).
/// Each stage is timed individually and its peak-RSS growth recorded; the
/// summary lands in UsiIndex::build_info().
///
/// The stages write the v3 image the index serves (index_format.hpp) in
/// place: SA and PSW never exist twice; H (canonical) and the learned
/// payload are staged once and copied in.
///
/// "mine" runs on the pool when one is given: chunked Kasai LCP, then the
/// exact miner's two sequential LCP-interval (ESA) passes, which keep only
/// the nodes at or above tau_K (ExactTopK; no node table, no radix sort).
/// ExactTopK is the only miner the builder runs; Build(TopKList) takes a
/// list mined elsewhere (the paper kit's Approximate-Top-K, Section VI)
/// in its place and runs every other stage unchanged. The image's miner
/// byte says which kind of list it was built from.
/// "sa" always runs on the calling thread. Phase (ii) is sequential:
/// ExhaustiveQueryEngine::AggregateIntervals walks the SA once, O(n + sum
/// of occurrences), and folds each key's occurrences in SA order — the
/// miss path's order, so a table hit equals the miss answer bit for bit.
/// Every stage's output is independent of the schedule, so a
/// parallel build serializes byte-identical to a sequential build at any
/// thread count (the determinism contract tests/parallel_test.cpp and
/// tests/buildpath_test.cpp pin).
///
/// Memory-lean staging: each stage releases its dead intermediates (SA-IS
/// workspace; the LCP array, frequency counts and kept nodes of the miner;
/// the mined list) before the next stage allocates, so the build's peak RSS
/// tracks the largest single stage instead of the sum of all of them.

#include <memory>
#include <vector>

#include "usi/core/usi_index.hpp"

namespace usi {

class ThreadPool;

/// One timed construction stage.
struct UsiBuildStage {
  const char* name;  ///< "sa", "mine", "table", "learn", "finalize".
  double seconds;
  /// How much the stage grew the process peak RSS (VmHWM delta; 0 where
  /// /proc is unavailable or the stage stayed under the running peak).
  std::size_t rss_delta_bytes = 0;
};

/// Builds UsiIndex instances, sequentially or over a thread pool.
class UsiBuilder {
 public:
  /// \p ws is borrowed and must outlive the builder and the built indexes.
  /// options.threads selects the pool width when no pool is injected
  /// (1 = sequential, 0 = hardware concurrency).
  explicit UsiBuilder(const WeightedString& ws, const UsiOptions& options = {});
  ~UsiBuilder();

  UsiBuilder(const UsiBuilder&) = delete;
  UsiBuilder& operator=(const UsiBuilder&) = delete;

  /// Injects a shared pool (borrowed; null = honor options.threads).
  UsiBuilder& UsePool(ThreadPool* pool);

  /// Runs all stages and returns the finished index.
  std::unique_ptr<UsiIndex> Build();

  /// As Build(), with \p mined standing in for the "mine" stage's output:
  /// a list mined outside the builder over the same text, such as the
  /// paper kit's ApproximateTopK for a UAT index. Items without an SA
  /// interval are located in the SA by the table stage. Returns null, and
  /// builds nothing, when the list holds more than K items (options.k, or
  /// n/100 when 0) or an item does not fit the text: a zero length, a
  /// witness occurrence past its end, or an SA interval past n.
  std::unique_ptr<UsiIndex> Build(TopKList mined);

  /// Per-stage timings of the most recent Build.
  const std::vector<UsiBuildStage>& stages() const { return stages_; }

 private:
  friend class UsiIndex;

  /// The pool the stages will run on: the injected one, else a lazily
  /// created owned pool per options.threads, else null (sequential).
  ThreadPool* EffectivePool();

  /// K: options.k, or n/100 (at least 1) when it is 0.
  u64 EffectiveK() const;

  /// Runs the staged pipeline: the sealed image an index is fixed up from.
  /// A non-null \p premined is moved in as the "mine" stage's output.
  UsiIndex::Image BuildImage(TopKList* premined);

  const WeightedString* ws_;
  UsiOptions options_;
  ThreadPool* pool_ = nullptr;
  std::unique_ptr<ThreadPool> owned_pool_;
  std::vector<UsiBuildStage> stages_;
};

}  // namespace usi

#endif  // USI_CORE_USI_BUILDER_HPP_
