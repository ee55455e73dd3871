#include "usi/core/usi_builder.hpp"

#include <algorithm>
#include <utility>

#include "usi/parallel/thread_pool.hpp"
#include "usi/suffix/sa_search.hpp"
#include "usi/suffix/suffix_array.hpp"
#include "usi/topk/exact_topk.hpp"
#include "usi/util/failpoint.hpp"
#include "usi/util/memory.hpp"
#include "usi/util/timer.hpp"

namespace usi {
namespace {

/// Peak-RSS growth since \p before (VmHWM is monotone; 0 when unavailable).
std::size_t PeakRssDelta(std::size_t before) {
  const std::size_t after = ReadPeakRssBytes();
  return after > before ? after - before : 0;
}

}  // namespace

UsiBuilder::UsiBuilder(const WeightedString& ws, const UsiOptions& options)
    : ws_(&ws), options_(options) {}

UsiBuilder::~UsiBuilder() = default;

UsiBuilder& UsiBuilder::UsePool(ThreadPool* pool) {
  pool_ = pool;
  return *this;
}

ThreadPool* UsiBuilder::EffectivePool() {
  if (pool_ != nullptr) return pool_;
  const unsigned threads = options_.threads == 0
                               ? ThreadPool::HardwareConcurrency()
                               : options_.threads;
  if (threads <= 1) return nullptr;
  if (owned_pool_ == nullptr || owned_pool_->thread_count() != threads) {
    owned_pool_ = std::make_unique<ThreadPool>(threads);
  }
  return owned_pool_.get();
}

std::unique_ptr<UsiIndex> UsiBuilder::Build() {
  std::unique_ptr<UsiIndex> index(
      new UsiIndex(UsiIndex::BuildTag{}, *ws_, options_));
  BuildInto(*index);
  return index;
}

void UsiBuilder::BuildInto(UsiIndex& index) {
  stages_.clear();
  Timer total_timer;
  const Text& text = ws_->text();
  const index_t n = ws_->size();
  const u64 k = options_.k > 0 ? options_.k : std::max<u64>(1, n / 100);
  ThreadPool* pool = EffectivePool();

  index.build_info_ = UsiBuildInfo{};
  index.build_info_.k = k;
  index.build_info_.threads_used = pool == nullptr ? 1 : pool->thread_count();

  // Stage "sa": the text index every later phase shares, built on the
  // calling thread. The workspace arena is stack-local to the call, so the
  // stage leaves nothing behind but the array itself.
  Timer sa_timer;
  std::size_t rss_before = ReadPeakRssBytes();
  USI_FAILPOINT("build.sa");
  std::vector<index_t> sa = BuildSuffixArray(text);
  index.build_info_.sa_seconds = sa_timer.ElapsedSeconds();
  index.build_info_.sa_rss_delta_bytes = PeakRssDelta(rss_before);
  stages_.push_back(
      {"sa", index.build_info_.sa_seconds, index.build_info_.sa_rss_delta_bytes});

  // Stage "mine": phase (i), the top-K frequent substrings. ExactTopK's
  // LCP array and kept nodes are local to the call, so none of the mining
  // intermediates are resident while the table stage runs.
  Timer mining_timer;
  rss_before = ReadPeakRssBytes();
  USI_FAILPOINT("build.mine");
  index.sa_ = std::move(sa);
  TopKList mined;
  if (n > 0) {
    mined = options_.miner == UsiMiner::kExact
                ? ExactTopK(text, index.sa_, k, pool)
                : ApproximateTopK(text, k, options_.approx);
  }
  index.build_info_.mining_seconds = mining_timer.ElapsedSeconds();
  index.build_info_.mining_rss_delta_bytes = PeakRssDelta(rss_before);
  stages_.push_back({"mine", index.build_info_.mining_seconds,
                     index.build_info_.mining_rss_delta_bytes});

  index_t tau = kInvalidIndex;
  for (const TopKSubstring& item : mined.items) {
    tau = std::min(tau, item.frequency);
  }
  index.build_info_.tau_k = mined.items.empty() ? 0 : tau;

  // Stage "table": phases (ii)+(iii), one sequential SA sweep.
  Timer table_timer;
  rss_before = ReadPeakRssBytes();
  USI_FAILPOINT("build.table");
  PopulateTable(index, mined);
  mined = TopKList{};  // The mined list fed the table; release it now.
  index.build_info_.table_seconds = table_timer.ElapsedSeconds();
  index.build_info_.table_rss_delta_bytes = PeakRssDelta(rss_before);
  stages_.push_back({"table", index.build_info_.table_seconds,
                     index.build_info_.table_rss_delta_bytes});

  // Stage "learn": fit the PLA last-mile model over the finished SA (one
  // deterministic sequential pass; learned_sa.hpp). learned_epsilon == 0
  // skips the fit and leaves misses on plain binary search. The vector has
  // its final contents here — only "finalize"'s shrink_to_fit may still
  // move the buffer, and the model stores positions, not pointers, so the
  // fit stays valid across it.
  Timer learn_timer;
  rss_before = ReadPeakRssBytes();
  USI_FAILPOINT("build.learn");
  if (options_.learned_epsilon > 0 && n > 0) {
    index.learned_.Build(text, index.sa_, {options_.learned_epsilon});
  }
  index.build_info_.learn_seconds = learn_timer.ElapsedSeconds();
  index.build_info_.learn_rss_delta_bytes = PeakRssDelta(rss_before);
  stages_.push_back({"learn", index.build_info_.learn_seconds,
                     index.build_info_.learn_rss_delta_bytes});

  // Stage "finalize": drop construction slack from build-owned vectors
  // (SizeInBytes reports used bytes; keeping slack would waste resident
  // memory on every long-lived index) and wire the SA + PSW fallback path.
  Timer finalize_timer;
  rss_before = ReadPeakRssBytes();
  index.sa_.shrink_to_fit();
  // After the shrink: sa_span_ and the fallback engine view the vector's
  // final buffer, which no longer moves for the index lifetime.
  index.sa_span_ = index.sa_;
  index.fallback_ =
      ExhaustiveQueryEngine(text, index.sa_span_, index.psw_, index.kind_);
  if (!index.learned_.empty()) {
    index.fallback_.AttachLearned(&index.learned_);
  }
  stages_.push_back(
      {"finalize", finalize_timer.ElapsedSeconds(), PeakRssDelta(rss_before)});

  index.build_info_.total_seconds = total_timer.ElapsedSeconds();
  index.build_info_.peak_rss_bytes = ReadPeakRssBytes();
}

void UsiBuilder::PopulateTable(UsiIndex& index, const TopKList& mined) {
  const Text& text = ws_->text();
  const index_t n = ws_->size();
  if (mined.items.empty() || n == 0) return;

  // Every mined substring as (SA interval, length), keyed by its
  // fingerprint. The exact miner hands over its interval; an approximate
  // witness is located in the SA (its duplicates are dropped by the sweep).
  std::vector<IntervalItem> items;
  std::vector<index_t> lengths;
  items.reserve(mined.items.size());
  lengths.reserve(mined.items.size());
  for (const TopKSubstring& item : mined.items) {
    lengths.push_back(item.length);
    const std::span<const Symbol> pattern(text.data() + item.witness,
                                          item.length);
    const SaInterval interval = item.HasInterval()
                                    ? SaInterval{item.lb, item.rb}
                                    : FindSaInterval(text, index.sa_, pattern);
    items.push_back({interval, item.length, index.hasher_.Hash(pattern)});
  }
  std::sort(lengths.begin(), lengths.end());
  index.build_info_.num_lengths = static_cast<index_t>(
      std::unique(lengths.begin(), lengths.end()) - lengths.begin());

  // Phase (ii) as one SA-order sweep (utility.hpp): each key folds its
  // occurrences in SA order, as the miss path does, so a table hit equals
  // the miss answer bit for bit.
  std::vector<UtilityAccumulator> sums;
  ExhaustiveQueryEngine(text, index.sa_, index.psw_, index.kind_)
      .AggregateIntervals(items, sums);
  for (std::size_t i = 0; i < items.size(); ++i) {
    index.table_.FindOrInsert(PatternKey{items[i].tag, items[i].length},
                              sums[i]);
  }
}

}  // namespace usi
