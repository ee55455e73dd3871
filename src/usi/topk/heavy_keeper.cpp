#include "usi/topk/heavy_keeper.hpp"

#include <algorithm>
#include <cmath>

#include "usi/hash/count_min_sketch.hpp"
#include "usi/hash/karp_rabin.hpp"
#include "usi/topk/frequency_summary.hpp"
#include "usi/util/rng.hpp"

namespace usi {

TopKList SubstringHeavyKeeper(const Text& text, u64 k,
                              const SubstringHkOptions& options,
                              SubstringHkStats* stats) {
  TopKList result;
  const index_t n = static_cast<index_t>(text.size());
  if (n == 0 || k == 0) return result;

  const std::size_t width =
      options.sketch_width > 0 ? options.sketch_width
                               : std::max<std::size_t>(64, 2 * k);
  DecaySketch sketch(width, options.sketch_depth, options.decay_base,
                     options.seed);
  FrequencySummary summary(k);
  KarpRabinHasher hasher(options.seed ^ 0xFEED);
  const index_t max_length = options.max_length > 0 ? options.max_length : n;

  u64 hashed = 0;
  bool timed_out = false;
  for (index_t i = 0; i < n && !timed_out; ++i) {
    u64 fp = 0;
    for (index_t len = 1; i + len <= n && len <= max_length; ++len) {
      fp = hasher.Append(fp, text[i + len - 1]);  // O(1) per extension.
      const PatternKey key{fp, len};
      ++hashed;
      if (options.max_hashed_substrings > 0 &&
          hashed > options.max_hashed_substrings) {
        timed_out = true;
        break;
      }
      const u32 estimate = sketch.Insert(key.fp ^ (u64{key.len} << 48));
      summary.Offer(key, estimate, i, len);
      // Extension gate: the next longer candidate is considered only if this
      // one is resident in ssummary (plus the optional geometric coin).
      if (!summary.Contains(key)) break;
      if (options.strict_extension_coin) {
        const double p = std::pow(options.extension_base,
                                  -static_cast<double>(len));
        const u64 coin = Rng::Mix(static_cast<u64>(i) << 32 | len, options.seed);
        if (static_cast<double>(coin >> 11) * 0x1.0p-53 >= p) break;
      }
    }
  }

  if (stats != nullptr) {
    stats->hashed_substrings = hashed;
    stats->space_bytes = sketch.SizeInBytes() + summary.SizeInBytes();
    stats->timed_out = timed_out;
  }
  result.items = summary.Report(k);
  return result;
}

}  // namespace usi
