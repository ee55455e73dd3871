#include "usi/core/usi_builder.hpp"

#include <algorithm>
#include <cstring>
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

using Table = FingerprintTable<UtilityAccumulator>;

/// Phase (ii): H from the mined list in one SA sweep, canonical. Sets
/// \p num_lengths to L_K, the number of distinct mined lengths.
Table PopulateTable(const Text& text, std::span<const index_t> sa,
                    const PrefixSumWeights& psw, GlobalUtilityKind kind,
                    const KarpRabinHasher& hasher, const TopKList& mined,
                    index_t* num_lengths) {
  *num_lengths = 0;
  if (mined.items.empty() || sa.empty()) return Table(0);

  // Every mined substring as (SA interval, length), keyed by its
  // fingerprint. The exact miner hands over its interval; an approximate
  // witness is located in the SA (its duplicates are dropped by the sweep).
  std::vector<IntervalItem> items;
  items.reserve(mined.items.size());
  for (const TopKSubstring& item : mined.items) {
    const std::span<const Symbol> pattern(text.data() + item.witness,
                                          item.length);
    const SaInterval interval = item.HasInterval()
                                    ? SaInterval{item.lb, item.rb}
                                    : FindSaInterval(text, sa, pattern);
    items.push_back({interval, item.length, hasher.Hash(pattern)});
  }

  // Phase (ii) as one SA-order sweep (utility.hpp): each key folds its
  // occurrences in SA order, as the miss path does, so a table hit equals
  // the miss answer bit for bit.
  std::vector<UtilityAccumulator> sums;
  ExhaustiveQueryEngine(text, sa, psw, kind).AggregateIntervals(items, sums);

  // Canonical H: the entries in (length, fingerprint) order — of equal
  // keys, the first in sweep order — inserted into a table pre-sized for
  // exactly their count. No rehash happens, so the ctrl/slot bytes are a
  // pure function of the table's contents, whatever the build schedule.
  using Entry = Table::Slot;
  std::vector<Entry> entries(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    entries[i] = {PatternKey{items[i].tag, items[i].length}, sums[i]};
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.key.len != b.key.len ? a.key.len < b.key.len
                                                   : a.key.fp < b.key.fp;
                   });
  entries.erase(std::unique(entries.begin(), entries.end(),
                            [](const Entry& a, const Entry& b) {
                              return a.key == b.key;
                            }),
                entries.end());
  Table table(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    table.FindOrInsert(entries[i].key, entries[i].value);
    if (i == 0 || entries[i].key.len != entries[i - 1].key.len) ++*num_lengths;
  }
  return table;
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
  return std::unique_ptr<UsiIndex>(
      new UsiIndex(UsiIndex::ImageTag{}, *ws_, BuildImage()));
}

UsiIndex::Image UsiBuilder::BuildImage() {
  using namespace format_v3;
  stages_.clear();
  Timer total_timer;
  const Text& text = ws_->text();
  const index_t n = ws_->size();
  const u64 k = options_.k > 0 ? options_.k : std::max<u64>(1, n / 100);
  ThreadPool* pool = EffectivePool();
  const KarpRabinHasher hasher(options_.hash_seed);

  UsiIndex::Image image;
  UsiBuildInfo& info = image.build_info;
  info.threads_used = pool == nullptr ? 1 : pool->thread_count();
  FileHeader& header = image.header;
  header.n = n;
  header.kind = static_cast<u8>(options_.utility);
  header.miner = static_cast<u8>(options_.miner);
  header.base = hasher.base();
  header.k = k;
  header.slot_bytes = sizeof(Table::Slot);
  LearnedSectionEntry& ext = image.learned;

  // Runs one stage: its seconds, and how much it grew the peak RSS (VmHWM
  // is monotone; 0 when unavailable).
  const auto stage = [&](const char* name, double* seconds,
                         std::size_t* rss_delta, auto&& body) {
    Timer timer;
    const std::size_t rss_before = ReadPeakRssBytes();
    body();
    *seconds = timer.ElapsedSeconds();
    *rss_delta = std::max(ReadPeakRssBytes(), rss_before) - rss_before;
    stages_.push_back({name, *seconds, *rss_delta});
  };

  // One mapping for the whole image, sized for a table at K's capacity (H
  // holds at most K entries); "learn" trims or grows it to the final size.
  const UsiIndex::CoreLayout reserved =
      UsiIndex::LayoutCore(n, Table::CapacityFor(k));
  image.bytes = MappedFile::CreateOwned(reserved.end);
  u8* base = image.bytes->mutable_data();
  auto* const sa_p =
      reinterpret_cast<index_t*>(base + reserved.offset[kSuffixArray]);
  auto* const psw_p =
      reinterpret_cast<double*>(base + reserved.offset[kPrefixSums]);
  const std::span<const index_t> sa(sa_p, n);
  PrefixSumWeights::Compute(*ws_, psw_p);
  const PrefixSumWeights psw = PrefixSumWeights::FromRaw(psw_p, n);

  // Stage "sa": the text index every later phase shares, built on the
  // calling thread straight into the SA section. SA-IS's sentinel slot is
  // the word before it, header slack "finalize" overwrites. The workspace
  // arena is stack-local to the call, so the stage leaves nothing behind.
  stage("sa", &info.sa_seconds, &info.sa_rss_delta_bytes, [&] {
    USI_FAILPOINT("build.sa");
    BuildSuffixArrayAt(text, sa_p - 1);
  });

  // Stage "mine": phase (i), the top-K frequent substrings. ExactTopK's
  // LCP array and kept nodes are local to the call, so none of the mining
  // intermediates are resident while the table stage runs.
  TopKList mined;
  stage("mine", &info.mining_seconds, &info.mining_rss_delta_bytes, [&] {
    USI_FAILPOINT("build.mine");
    if (n == 0) return;
    mined = options_.miner == UsiMiner::kExact
                ? ExactTopK(text, sa, k, pool)
                : ApproximateTopK(text, k, options_.approx);
  });
  index_t tau = kInvalidIndex;
  for (const TopKSubstring& item : mined.items) {
    tau = std::min(tau, item.frequency);
  }
  header.tau_k = mined.items.empty() ? 0 : tau;

  // Stage "table": phases (ii)+(iii), one sequential SA sweep into the
  // staged canonical table, then copied into the table sections.
  UsiIndex::CoreLayout layout;
  stage("table", &info.table_seconds, &info.table_rss_delta_bytes, [&] {
    USI_FAILPOINT("build.table");
    const Table table = PopulateTable(text, sa, psw, options_.utility, hasher,
                                      mined, &header.num_lengths);
    mined = TopKList{};  // The mined list fed the table; release it now.
    layout = UsiIndex::LayoutCore(n, table.capacity());
    std::memcpy(base + layout.offset[kTableCtrl], table.ctrl_bytes().data(),
                layout.length[kTableCtrl]);
    std::memcpy(base + layout.offset[kTableSlots], table.slots().data(),
                layout.length[kTableSlots]);
    header.table_size = table.size();
    header.table_capacity = table.capacity();
  });

  // Stage "learn": fit the PLA last-mile model over the finished SA (one
  // deterministic sequential pass; learned_sa.hpp) and append its payload
  // as the last section. learned_epsilon == 0 skips the fit and leaves
  // misses on plain binary search. The mapping takes its final size here
  // and may move (mremap): only `base`, re-read, is used past this point.
  stage("learn", &info.learn_seconds, &info.learn_rss_delta_bytes, [&] {
    USI_FAILPOINT("build.learn");
    LearnedSa model;
    if (options_.learned_epsilon > 0 && n > 0) {
      model.Build(text, sa, {options_.learned_epsilon});
    }
    header.file_bytes = layout.end;
    if (!model.empty()) {
      ext.ext_magic = kLearnedMagic;
      ext.epsilon = model.epsilon();
      ext.offset = AlignUp(layout.end);
      ext.length = model.payload().size();
      ext.num_segments = model.num_segments();
      header.file_bytes = ext.offset + ext.length;
    }
    image.bytes->Resize(header.file_bytes);
    base = image.bytes->mutable_data();
    if (!model.empty()) {
      std::memcpy(base + ext.offset, model.payload().data(), ext.length);
    }
  });

  // Stage "finalize": the header and learned entry (their checksums are
  // left for SaveToFile to seal), then the image turns read-only. The
  // table's and the fit's freed staging goes back to the OS: glibc may have
  // served it from the heap, where freed pages stay resident, so an index's
  // RSS would follow the allocator's history. (The O(n) scratch of SA-IS
  // and of the miner lives in anonymous mappings, unmapped when freed.)
  double finalize_seconds = 0;
  std::size_t finalize_rss_delta = 0;
  stage("finalize", &finalize_seconds, &finalize_rss_delta, [&] {
    for (std::size_t s = 0; s < kNumSections; ++s) {
      header.sections[s] = {static_cast<u32>(s), 0, layout.offset[s],
                            layout.length[s], 0};
    }
    std::memcpy(base, &header, sizeof(header));
    std::memcpy(base + sizeof(header), &ext, sizeof(ext));
    image.bytes->Seal();
    ReleaseFreedHeap();
  });

  info.total_seconds = total_timer.ElapsedSeconds();
  info.peak_rss_bytes = ReadPeakRssBytes();
  return image;
}

}  // namespace usi
