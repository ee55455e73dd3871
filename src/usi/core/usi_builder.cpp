#include "usi/core/usi_builder.hpp"

#include <algorithm>
#include <utility>

#include "usi/parallel/thread_pool.hpp"
#include "usi/suffix/suffix_array.hpp"
#include "usi/topk/substring_stats.hpp"
#include "usi/util/bit_vector.hpp"
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

  // Stage "sa": the text index every later phase shares. The SA-IS level-0
  // histogram and LMS gathering run on the pool; the workspace arena is
  // stack-local to the call, so the stage leaves nothing behind but the
  // array itself.
  Timer sa_timer;
  std::size_t rss_before = ReadPeakRssBytes();
  USI_FAILPOINT("build.sa");
  std::vector<index_t> sa = BuildSuffixArray(text, pool);
  index.build_info_.sa_seconds = sa_timer.ElapsedSeconds();
  index.build_info_.sa_rss_delta_bytes = PeakRssDelta(rss_before);
  stages_.push_back(
      {"sa", index.build_info_.sa_seconds, index.build_info_.sa_rss_delta_bytes});

  // Stage "mine": phase (i), the top-K frequent substrings. The stats object
  // (LCP + T/Q/L tables) is scoped to this block and its LCP array is
  // released the moment the node table exists, so none of the mining
  // intermediates are resident while the table stage runs.
  Timer mining_timer;
  rss_before = ReadPeakRssBytes();
  USI_FAILPOINT("build.mine");
  TopKList mined;
  if (options_.miner == UsiMiner::kExact && n > 0) {
    SubstringStats stats(text, std::move(sa), pool);
    stats.ReleaseLcp();  // T/Q/L are built; the LCP scratch is dead weight.
    mined = stats.TopK(k);
    index.sa_ = stats.TakeSa();  // Reuse the shared suffix array.
  } else {
    index.sa_ = std::move(sa);
    if (n > 0) mined = ApproximateTopK(text, k, options_.approx);
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

  // Stage "table": phases (ii)+(iii), parallel over distinct lengths.
  Timer table_timer;
  rss_before = ReadPeakRssBytes();
  USI_FAILPOINT("build.table");
  PopulateTable(index, mined, pool);
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

void UsiBuilder::PopulateTable(UsiIndex& index, const TopKList& mined,
                               ThreadPool* pool) {
  using TableValue = UsiIndex::TableValue;
  const Text& text = ws_->text();
  const index_t n = ws_->size();
  if (mined.items.empty() || n == 0) return;

  // Group mined substrings by length. stable_sort keeps the (deterministic)
  // mined order within each group, so every thread count sees identical
  // groups and identical per-group insertion order.
  std::vector<const TopKSubstring*> by_length(mined.items.size());
  for (std::size_t i = 0; i < mined.items.size(); ++i) {
    by_length[i] = &mined.items[i];
  }
  std::stable_sort(by_length.begin(), by_length.end(),
                   [](const TopKSubstring* a, const TopKSubstring* b) {
                     return a->length < b->length;
                   });

  struct Group {
    index_t len;
    std::size_t begin;  ///< Range into by_length.
    std::size_t end;
  };
  std::vector<Group> groups;
  for (std::size_t begin = 0; begin < by_length.size();) {
    const index_t len = by_length[begin]->length;
    std::size_t end = begin;
    while (end < by_length.size() && by_length[end]->length == len) ++end;
    groups.push_back({len, begin, end});
    begin = end;
  }
  index.build_info_.num_lengths = static_cast<index_t>(groups.size());

  const unsigned workers =
      pool == nullptr
          ? 1
          : static_cast<unsigned>(std::min<std::size_t>(pool->thread_count(),
                                                        groups.size()));

  // Workers share the hasher read-only (Hash, Append and RollingHasher
  // setup never touch its power table); each gets its own occurrence-mark
  // bit vector B.
  const KarpRabinHasher& hasher = index.hasher_;
  std::vector<BitVector> marks;
  marks.reserve(std::max(1u, workers));
  for (unsigned w = 0; w < std::max(1u, workers); ++w) {
    marks.emplace_back(mined.exact ? n : 0);
  }

  // Each length group aggregates into a private table; groups touch
  // disjoint key sets because the length is part of the key.
  std::vector<FingerprintTable<TableValue>> partials(groups.size());
  const PrefixSumWeights& psw = index.psw_;
  const GlobalUtilityKind kind = index.kind_;
  const std::vector<index_t>& sa = index.sa_;

  ParallelFor(pool, groups.size(), [&](std::size_t g, unsigned worker) {
    const Group& group = groups[g];
    const index_t len = group.len;
    if (len > n || len == 0) return;  // Nothing of this length fits.
    BitVector& worker_marks = marks[worker];
    FingerprintTable<TableValue> local(group.end - group.begin);

    if (mined.exact) {
      // Mark all occurrence starts of this length's substrings in B.
      for (std::size_t i = group.begin; i < group.end; ++i) {
        const TopKSubstring& item = *by_length[i];
        for (index_t k = item.lb; k <= item.rb; ++k) {
          worker_marks.Set(sa[k]);
        }
      }
    } else {
      // Approximate miner gives witnesses, not intervals: pre-insert keys
      // so the window pass below runs in update-only mode.
      for (std::size_t i = group.begin; i < group.end; ++i) {
        const TopKSubstring& item = *by_length[i];
        const u64 fp = hasher.Hash(
            std::span<const Symbol>(text.data() + item.witness, len));
        local.FindOrInsert(PatternKey{fp, len}, TableValue{});
      }
    }

    // Slide a length-len window over S; O(1) fingerprint and local utility
    // per position (Section IV, phase (ii)).
    RollingHasher window(hasher, len);
    for (index_t i = 0; i + 1 < len && i < n; ++i) window.Push(text[i]);
    for (index_t i = 0; i + len <= n; ++i) {
      if (i == 0) {
        window.Push(text[len - 1]);
      } else {
        window.Roll(text[i - 1], text[i + len - 1]);
      }
      const PatternKey key{window.Fingerprint(), len};
      if (mined.exact) {
        if (!worker_marks.Test(i)) continue;
        local.FindOrInsert(key, TableValue{})
            ->Add(psw.LocalUtility(i, len), kind);
      } else {
        TableValue* value = local.Find(key);
        if (value != nullptr) value->Add(psw.LocalUtility(i, len), kind);
      }
    }

    if (mined.exact) {
      // Reset only the bits we set (cheaper than zeroing all of B).
      for (std::size_t i = group.begin; i < group.end; ++i) {
        const TopKSubstring& item = *by_length[i];
        for (index_t k = item.lb; k <= item.rb; ++k) {
          worker_marks.Clear(sa[k]);
        }
      }
    }
    partials[g] = std::move(local);
  });

  // Deterministic merge in increasing-length order. Disjoint key sets make
  // every per-key (value, count) pair exactly the sequential one, so the
  // main table's contents — and its canonical serialization — are
  // independent of the schedule and the thread count.
  for (FingerprintTable<TableValue>& partial : partials) {
    partial.ForEach([&](const PatternKey& key, TableValue& value) {
      index.table_.FindOrInsert(key, value);
    });
  }
}

}  // namespace usi
