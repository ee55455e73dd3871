// Quickstart: index a weighted string and answer utility queries.
//
// Reproduces Example 1 of the paper end to end: the text S, per-position
// utilities w, the "sum of sums" global utility, and the query P = TACCCC
// whose global utility is 14.6 — then serves a batch of patterns through
// UsiService, the batched/sharded serving layer over the QueryEngine
// contract.

#include <cstdio>
#include <string>
#include <vector>

#include "usi/core/usi_index.hpp"
#include "usi/core/usi_service.hpp"
#include "usi/text/alphabet.hpp"

int main() {
  using namespace usi;

  // 1. A weighted string (S, w): DNA letters with per-position utilities.
  const std::string raw = "ATACCCCGATAATACCCCAG";
  const Alphabet alphabet = Alphabet::FromRaw(raw);
  Text text = alphabet.EncodeString(raw);
  const std::vector<double> weights = {0.9, 1, 3,   2, 0.7, 1, 1, 0.6, 0.5, 0.5,
                                       0.5, 0.8, 1, 1, 1,   0.9, 1, 1, 0.8, 1};
  const WeightedString ws(std::move(text), weights);

  // 2. Build USI_TOP-K. K trades query time for space; n/100 is the paper's
  //    recommended regime (here the text is tiny, so precompute top-10).
  UsiOptions options;
  options.k = 10;
  options.utility = GlobalUtilityKind::kSum;  // "sum of sums", as in [1].
  // options.threads = 0 would run the staged parallel build pipeline at
  // hardware concurrency — same bytes, faster on big texts.
  UsiIndex index(ws, options);

  std::printf("indexed %u positions; hash table holds %zu top-K substrings; "
              "tau_K = %u\n",
              ws.size(), index.HashTableEntries(), index.build_info().tau_k);

  // 3. Query patterns.
  for (const char* pattern_raw : {"TACCCC", "ATA", "CCCC", "GGG"}) {
    const Text pattern = alphabet.EncodeString(pattern_raw);
    const QueryResult result = index.Query(pattern);
    std::printf("U(%-7s) = %6.2f over %u occurrence(s)%s\n", pattern_raw,
                result.utility, result.occurrences,
                result.from_hash_table ? "  [precomputed]" : "  [SA + PSW]");
  }
  // Example 1 check: U(TACCCC) = (1+3+2+0.7+1+1) + (1+1+1+0.9+1+1) = 14.6.

  // 4. Batched serving: UsiService shards a batch across a thread pool
  //    (UsiIndex queries are concurrency-safe) and returns results in batch
  //    order — the serving path benches and drivers share.
  UsiService service(index);  // Owns a pool at hardware concurrency.
  std::vector<Text> batch;
  for (const char* raw : {"ATA", "CCCC", "TACCCC", "GGG"}) {
    batch.push_back(alphabet.EncodeString(raw));
  }
  // The service borrows patterns as spans; AsPatternSpans views the owned
  // Texts. The stats out-parameter reports what actually happened — a batch
  // this small stays on one thread rather than paying fan-out overhead.
  std::vector<QueryResult> answers(batch.size());
  UsiBatchStats stats;
  service.QueryBatchInto(AsPatternSpans(batch), answers, &stats);
  std::printf("QueryBatch: served %zu patterns on %u thread(s):",
              answers.size(), stats.threads_used);
  for (const QueryResult& answer : answers) {
    std::printf(" %.2f", answer.utility);
  }
  std::printf("\n");
  return 0;
}
