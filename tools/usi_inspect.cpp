// usi_inspect — operator tooling for persisted UsiIndex files.
//
//   usi_inspect info <file> [--deep]
//       Dumps the header and section directory of a v3 index file, then
//       prints the typed verdict of UsiIndex::ValidateImage — the checks
//       OpenMapped runs (every rule but the text length, which needs the
//       weighted string). --deep also verifies every payload, as
//       LoadFromFile does. Valid files additionally get the degraded-tier
//       block: the per-text tier UsiMultiService attaches at registration
//       (cache capacity and hit rate, sketch width/depth/epsilon, learned
//       mass, footprint). Exit 0 = valid, 1 = refused/unreadable.
//
//   usi_inspect convert <in> <out>
//                       (--dataset NAME [--n N] | --text FILE [--seed S])
//       Re-saves an index through a verifying owned read, producing the
//       same bytes (an image saved without the learned section stays
//       without one). The read needs the weighted string, and index files
//       do not embed the text — so it has to be re-materialized the same
//       way it was at build time: either a registry dataset (--dataset,
//       deterministic stand-in) or a raw text file with the paper's
//       synthetic-utility recipe (--text, same --seed as the original run).
//
//   usi_inspect selftest
//       End-to-end check run by CTest: builds a small index, saves it,
//       validates it through the info path (which must label a kMin index
//       "min", refuse six resealed header mutants with the code
//       LoadFromFile reports, and refuse a flipped payload byte under
//       --deep), re-saves it through convert,
//       verifies the re-save is byte-identical, that the heap read is not
//       mapped, and that every way of opening answers like the build, and
//       drives the degraded tier (exact batches feed it, the
//       cache rung replays them exactly, the sketch rung honors its bound,
//       and a deadline-expired allow_degraded batch serves from it).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "usi/core/degraded_tier.hpp"
#include "usi/core/index_format.hpp"
#include "usi/core/multi_service.hpp"
#include "usi/core/usi_index.hpp"
#include "usi/text/dataset.hpp"
#include "usi/util/failpoint.hpp"
#include "usi/util/mapped_file.hpp"
#include "usi/util/rng.hpp"

namespace usi {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  usi_inspect info <file> [--deep]\n"
      "  usi_inspect convert <in> <out>\n"
      "              (--dataset NAME [--n N] | --text FILE [--seed S])\n"
      "  usi_inspect failpoints\n"
      "  usi_inspect selftest\n");
  return 2;
}

const char* MinerName(u8 miner) {
  return miner == 0 ? "UET" : miner == 1 ? "UAT" : "?";
}

const char* SectionName(u32 id) {
  switch (id) {
    case format_v3::kSuffixArray: return "suffix_array";
    case format_v3::kPrefixSums: return "prefix_sums";
    case format_v3::kTableCtrl: return "table_ctrl";
    case format_v3::kTableSlots: return "table_slots";
    default: return "?";
  }
}

/// Prints one degraded-tier telemetry snapshot: the per-text stats block of
/// `info` and the traffic report of `selftest`.
void PrintDegradedTier(const DegradedTierStats& s) {
  std::printf("  cache:       %zu/%zu slots, hit rate %.1f%% over %llu "
              "lookups\n",
              s.cache_size, s.cache_capacity, 100.0 * s.CacheHitRate(),
              static_cast<unsigned long long>(s.lookups));
  std::printf("  sketch:      %zu x %zu (epsilon %.3g, bound = epsilon * "
              "mass)\n",
              s.sketch_width, s.sketch_depth, s.epsilon);
  std::printf("  learned:     %zu/%zu keys, mass %.1f, %llu records "
              "(%llu dropped, %llu stale)\n",
              s.sketched_keys, s.max_sketched_keys, s.sketch_mass,
              static_cast<unsigned long long>(s.records),
              static_cast<unsigned long long>(s.record_drops),
              static_cast<unsigned long long>(s.stale_drops));
}

/// Prints one text's update-tier telemetry: the live delta overlay (size,
/// window, footprint) and the compaction history behind it.
void PrintUpdateTier(const UsiTextStats& s) {
  std::printf("  appends:     %llu absorbed, %llu compactions (last publish "
              "pause %.1f us)\n",
              static_cast<unsigned long long>(s.appends),
              static_cast<unsigned long long>(s.compactions),
              static_cast<double>(s.compact_publish_ns) / 1e3);
  if (!s.delta.has_value()) {
    std::printf("  delta:       none (all appends folded into the base)\n");
    return;
  }
  std::printf("  delta:       %u pending past boundary %u (window %u, "
              "%zu KiB, epoch %llu)\n",
              s.delta->appended, s.delta->boundary, s.delta->window,
              s.delta->bytes / 1024,
              static_cast<unsigned long long>(s.delta->epoch));
}

/// info: prints the header and section directory to \p out, then the typed
/// verdict of UsiIndex::ValidateImage — the checks OpenMapped runs, or with
/// \p deep the payload-verifying ones LoadFromFile runs. There is no
/// weighted string, so the text-length check is the one rule skipped.
/// Returns the process exit code: 0 valid, 1 refused or unreadable.
int InfoImage(const std::string& path, bool deep, std::FILE* out) {
  using namespace format_v3;
  const std::unique_ptr<MappedFile> mapping = MappedFile::OpenReadOnly(path);
  if (mapping == nullptr) {
    std::fprintf(stderr, "error: cannot map %s\n", path.c_str());
    return 1;
  }
  // Deep verification reads the whole image sequentially.
  if (deep) mapping->AdviseWillNeed();
  UsiIndex::ValidatedImage parsed;
  const LoadError verdict = UsiIndex::ValidateImage(
      {mapping->data(), mapping->size()}, nullptr, deep, &parsed);
  if (verdict.code != LoadErrorCode::kBadFormat) {
    const FileHeader& header = parsed.header;
    std::fprintf(out, "format:        v3 mapped (magic 0x%08X, version %u)\n",
                 header.magic, header.version);
    std::fprintf(out, "file_bytes:    %llu (file is %zu bytes)\n",
                 static_cast<unsigned long long>(header.file_bytes),
                 mapping->size());
    std::fprintf(out, "n:             %u\n", header.n);
    std::fprintf(out, "utility kind:  %s\n",
                 GlobalUtilityKindName(
                     static_cast<GlobalUtilityKind>(header.kind)));
    std::fprintf(out, "miner:         %s\n", MinerName(header.miner));
    std::fprintf(out, "kr base:       0x%llX\n",
                 static_cast<unsigned long long>(header.base));
    std::fprintf(out, "K:             %llu\n",
                 static_cast<unsigned long long>(header.k));
    std::fprintf(out, "tau_K:         %u\n", header.tau_k);
    std::fprintf(out, "num_lengths:   %u\n", header.num_lengths);
    std::fprintf(out, "table:         %llu entries in %llu slots (%llu "
                 "B/slot)\n",
                 static_cast<unsigned long long>(header.table_size),
                 static_cast<unsigned long long>(header.table_capacity),
                 static_cast<unsigned long long>(header.slot_bytes));
    std::fprintf(out, "sections:\n");
    std::fprintf(out, "  %-14s %12s %12s  %s\n", "id", "offset", "length",
                 "checksum");
    for (const SectionEntry& section : header.sections) {
      std::fprintf(out, "  %-14s %12llu %12llu  %016llX\n",
                   SectionName(section.id),
                   static_cast<unsigned long long>(section.offset),
                   static_cast<unsigned long long>(section.length),
                   static_cast<unsigned long long>(section.checksum));
    }
    const LearnedSectionEntry& ext = parsed.learned;
    if (ext.ext_magic == 0) {
      std::fprintf(out, "learned:       absent (misses answered by plain "
                   "binary search)\n");
    } else {
      std::fprintf(out, "learned:       present (epsilon %u, %llu segments, "
                   "%llu B at offset %llu)\n",
                   ext.epsilon,
                   static_cast<unsigned long long>(ext.num_segments),
                   static_cast<unsigned long long>(ext.length),
                   static_cast<unsigned long long>(ext.offset));
    }
  }
  if (verdict.code != LoadErrorCode::kOk) {
    std::fprintf(out, "verdict:       REJECTED [%s] %s\n",
                 LoadErrorCodeName(verdict.code), verdict.message.c_str());
    return 1;
  }
  std::fprintf(out, "verdict:       OK (%s)\n",
               deep ? "deep: every payload verified"
                    : "shallow: header, directory and learned entry "
                      "verified");
  return 0;
}

int Info(const std::string& path, bool deep) {
  const int rc = InfoImage(path, deep, stdout);
  if (rc == 0) {
    // The serving-side companion of the file: the per-text degradation
    // tier UsiMultiService attaches when this index is registered
    // (default geometry; counters accrue at serve time — query a live
    // service's StatsFor for trafficked numbers).
    const DegradedTier tier(UsiMultiServiceOptions{}.degraded);
    std::printf("degraded tier (attached per text at registration):\n");
    PrintDegradedTier(tier.stats());
    std::printf("  footprint:   %zu KiB\n", tier.SizeInBytes() / 1024);
    // And the update tier: appends land in a per-text delta overlay and
    // compact into fresh generations of this same file format.
    const UsiMultiServiceOptions defaults;
    std::printf("update tier (attached per text at registration):\n");
    std::printf("  delta:       window %u, compaction threshold %u appended "
                "symbols\n",
                defaults.delta_context, defaults.delta_compact_threshold);
  }
  return rc;
}

int Convert(const std::string& in, const std::string& out,
            const std::string& dataset, index_t n,
            const std::string& text_file, u64 seed) {
  WeightedString ws;
  if (!dataset.empty()) {
    ws = MakeDataset(DatasetSpecByName(dataset), n);
  } else if (!text_file.empty()) {
    if (!LoadTextFile(text_file, seed, &ws)) {
      std::fprintf(stderr, "error: cannot read text file %s\n",
                   text_file.c_str());
      return 1;
    }
  } else {
    std::fprintf(stderr,
                 "error: convert needs --dataset NAME or --text FILE to "
                 "re-materialize the weighted string the index borrows\n");
    return 2;
  }
  LoadError load_error;
  const std::unique_ptr<UsiIndex> index =
      UsiIndex::LoadFromFile(ws, in, &load_error);
  if (index == nullptr) {
    std::fprintf(stderr, "error: cannot load %s [%s]: %s\n", in.c_str(),
                 LoadErrorCodeName(load_error.code),
                 load_error.message.c_str());
    return 1;
  }
  if (!index->SaveToFile(out)) {
    std::fprintf(stderr, "error: writing %s failed\n", out.c_str());
    return 1;
  }
  std::printf("converted %s -> %s\n", in.c_str(), out.c_str());
  return 0;
}

/// Lists the failpoint sites this binary's library paths register. Sites
/// materialize lazily (first macro evaluation), so a tiny end-to-end pass
/// runs first to touch the common ones: a staged build, a save with a mapped open
/// and a heap read, a multi-service build (build lane + serve span), and a
/// table-miss query (fallback). Sites on paths this pass does not reach
/// (appends, compactions) are not listed. Exits 0.
int Failpoints() {
  const std::string path = std::string(P_tmpdir) + "/usi_inspect_fp.bin";
  WeightedString ws = MakeDataset(DatasetSpecByName("XML"), 4000);
  UsiOptions options;
  options.k = 50;
  options.threads = 1;
  const UsiIndex index(ws, options);
  if (index.SaveToFile(path)) {
    UsiIndex::OpenMapped(ws, path);
    UsiIndex::LoadFromFile(ws, path);
    std::remove(path.c_str());
  }
  index.Query(ws.Fragment(0, 4));
  index.Query(Text(4, Symbol{200}));  // Guaranteed miss: fallback site.
  {
    UsiMultiService service;  // Build lane + serve span sites.
    service.SubmitText("t", ws);
    service.WaitForBuilds();
    const std::vector<MultiQuery> batch = {{"t", ws.Fragment(0, 4)}};
    service.QueryBatch(batch);
  }
  std::printf("sites:\n");
  for (const std::string& name : failpoint::SiteNames()) {
    std::printf("  %s\n", name.c_str());
  }
  return 0;
}

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream stream(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(stream),
                           std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream stream(path, std::ios::binary | std::ios::trunc);
  stream.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Runs InfoImage with its report captured into \p report; returns its exit
/// code (-1 when no capture stream could be opened).
int CapturedInfo(const std::string& path, bool deep, std::string* report) {
  char* buffer = nullptr;
  std::size_t length = 0;
  std::FILE* stream = open_memstream(&buffer, &length);
  if (stream == nullptr) return -1;
  const int rc = InfoImage(path, deep, stream);
  std::fclose(stream);
  report->assign(buffer, length);
  std::free(buffer);
  return rc;
}

int Selftest() {
  const std::string dir = P_tmpdir;
  const std::string v3_path = dir + "/usi_inspect_selftest_v3.bin";
  const std::string rt_path = dir + "/usi_inspect_selftest_rt.bin";
  const std::string nolearn_path = dir + "/usi_inspect_selftest_nolearn.bin";
  const std::string bad_path = dir + "/usi_inspect_selftest_bad.bin";
  const auto fail = [&](const char* what) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    std::remove(v3_path.c_str());
    std::remove(rt_path.c_str());
    std::remove(nolearn_path.c_str());
    std::remove(bad_path.c_str());
    return 1;
  };

  const WeightedString ws = MakeDataset(DatasetSpecByName("XML"), 20000);
  UsiOptions options;
  options.k = 300;
  const UsiIndex index(ws, options);
  if (!index.SaveToFile(v3_path)) return fail("save");
  if (Info(v3_path, /*deep=*/true) != 0) return fail("info");

  // info names the utility kind as GlobalUtilityKindName does: a kMin
  // index reads "min".
  {
    UsiOptions min_options = options;
    min_options.utility = GlobalUtilityKind::kMin;
    if (!UsiIndex(ws, min_options).SaveToFile(bad_path)) {
      return fail("kMin save");
    }
    std::string report;
    if (CapturedInfo(bad_path, /*deep=*/false, &report) != 0 ||
        report.find("utility kind:  min\n") == std::string::npos) {
      return fail("info kind label of a kMin index");
    }
  }

  // info refuses exactly what the loaders refuse, naming the code
  // LoadFromFile reports for the same file: resealed header fields (the
  // checksum is valid, the field checks must catch them), then a flipped
  // payload byte, which only the payload-verifying --deep pass can see.
  {
    using format_v3::FileHeader;
    const std::vector<char> image = ReadAll(v3_path);
    FileHeader header;
    std::memcpy(&header, image.data(), sizeof(header));
    // Exit 1 with `[name]` in the report, where LoadFromFile says \p code.
    const auto refused_as = [&](bool deep, LoadErrorCode code) {
      LoadError heap;
      UsiIndex::LoadFromFile(ws, bad_path, &heap);
      std::string report;
      return heap.code == code && CapturedInfo(bad_path, deep, &report) == 1 &&
             report.find(std::string("[") + LoadErrorCodeName(code) + "]") !=
                 std::string::npos;
    };
    struct Resealed {
      const char* what;
      void (*mutate)(FileHeader&);
      LoadErrorCode code;
    };
    constexpr LoadErrorCode kCorrupt = LoadErrorCode::kCorrupt;
    const Resealed cases[] = {
        {"info on kind=4", [](FileHeader& h) { h.kind = 4; }, kCorrupt},
        {"info on miner=7", [](FileHeader& h) { h.miner = 7; }, kCorrupt},
        {"info on base=0", [](FileHeader& h) { h.base = 0; }, kCorrupt},
        {"info on slot_bytes+8", [](FileHeader& h) { h.slot_bytes += 8; },
         LoadErrorCode::kHostMismatch},
        {"info on table_capacity+1",
         [](FileHeader& h) { h.table_capacity += 1; }, kCorrupt},
        {"info on sections[1].length-8",
         [](FileHeader& h) { h.sections[1].length -= 8; }, kCorrupt},
    };
    for (const Resealed& c : cases) {
      FileHeader mutated = header;
      c.mutate(mutated);
      mutated.header_checksum =
          Checksum64(&mutated, offsetof(FileHeader, header_checksum));
      std::vector<char> bytes = image;
      std::memcpy(bytes.data(), &mutated, sizeof(mutated));
      WriteAll(bad_path, bytes);
      if (!refused_as(/*deep=*/false, c.code)) return fail(c.what);
    }
    std::vector<char> flipped = image;
    const format_v3::SectionEntry& sa =
        header.sections[format_v3::kSuffixArray];
    const std::size_t target = sa.offset + sa.length / 2;
    flipped[target] = static_cast<char>(flipped[target] ^ 0x10);
    WriteAll(bad_path, flipped);
    std::string report;
    if (CapturedInfo(bad_path, /*deep=*/false, &report) != 0) {
      return fail("shallow info reads a payload");
    }
    if (!refused_as(/*deep=*/true, LoadErrorCode::kCorrupt)) {
      return fail("info --deep on a flipped payload byte");
    }
    std::remove(bad_path.c_str());
  }

  // A re-save through the verifying heap read lands on the exact original
  // bytes.
  if (Convert(v3_path, rt_path, "XML", 20000, "", 0) != 0) {
    return fail("convert");
  }
  if (ReadAll(rt_path) != ReadAll(v3_path)) return fail("convert bytes");

  // The mapped image and the heap read answer like the freshly built
  // index; so does an image saved WITHOUT the learned section (the shape
  // every pre-extension file has — it opens, serves misses by plain binary
  // search, and must agree byte-for-byte on every answer).
  const std::unique_ptr<UsiIndex> mapped = UsiIndex::OpenMapped(ws, rt_path);
  if (mapped == nullptr) return fail("reopen");
  if (mapped->learned_sa().empty()) return fail("mapped learned absent");
  const std::unique_ptr<UsiIndex> heap = UsiIndex::LoadFromFile(ws, rt_path);
  if (heap == nullptr || heap->IsMapped()) return fail("heap read");
  UsiIndex::SaveOptions no_learned;
  no_learned.learned_section = false;
  if (!index.SaveToFile(nolearn_path, IndexFileFormat::kV3Mapped,
                        no_learned)) {
    return fail("no-learned save");
  }
  if (Info(nolearn_path, /*deep=*/true) != 0) return fail("no-learned info");
  const std::unique_ptr<UsiIndex> plain =
      UsiIndex::OpenMapped(ws, nolearn_path);
  if (plain == nullptr) return fail("no-learned reopen");
  if (!plain->learned_sa().empty()) return fail("no-learned not plain");
  for (index_t i = 0; i + 6 <= ws.size(); i += 503) {
    const Text pattern = ws.Fragment(i, 6);
    const QueryResult a = index.Query(pattern);
    const QueryResult b = mapped->Query(pattern);
    const QueryResult c = plain->Query(pattern);
    const QueryResult d = heap->Query(pattern);
    if (a.utility != b.utility || a.occurrences != b.occurrences ||
        a.utility != c.utility || a.occurrences != c.occurrences ||
        a.utility != d.utility || a.occurrences != d.occurrences) {
      return fail("query parity");
    }
  }
  std::remove(v3_path.c_str());
  std::remove(rt_path.c_str());
  std::remove(nolearn_path.c_str());

  // Degraded-tier coverage: serve an exact batch through a multi-service
  // (which feeds the text's tier), check the tier telemetry surfaces via
  // StatsFor, then re-serve the same batch with an already-expired deadline
  // and allow_degraded — every slot must be filled from the tier, and every
  // tier answer must sit within [exact, exact + error_bound].
  {
    UsiMultiServiceOptions service_options;
    service_options.threads = 1;
    UsiMultiService service(service_options);
    WeightedString ws_copy = ws;
    service.SubmitText("t", std::move(ws_copy));
    if (service.WaitForText("t") != BuildState::kReady) {
      return fail("tier text build");
    }
    std::vector<Text> patterns;
    for (index_t i = 0; i + 6 <= ws.size(); i += 503) {
      patterns.push_back(ws.Fragment(i, 6));
    }
    std::vector<MultiQuery> batch;
    for (const Text& pattern : patterns) batch.push_back({"t", pattern});
    const MultiBatchResult exact_batch = service.QueryBatch(batch);
    if (exact_batch.status != ServeStatus::kOk) return fail("tier exact batch");
    const std::optional<UsiTextStats> before = service.StatsFor("t");
    if (!before.has_value() || !before->degraded.has_value()) {
      return fail("tier stats absent");
    }
    if (before->degraded->records == 0) return fail("tier learned nothing");

    MultiBatchOptions expired;
    expired.deadline =
        std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
    expired.allow_degraded = true;
    std::vector<QueryResult> degraded(batch.size());
    if (service.QueryBatchInto(batch, degraded, expired) !=
        ServeStatus::kDeadlineExceeded) {
      return fail("tier deadline status");
    }
    for (std::size_t i = 0; i < degraded.size(); ++i) {
      const QueryResult& got = degraded[i];
      if (got.provenance == AnswerProvenance::kNone) continue;
      if (got.utility + 1e-9 < exact_batch.results[i].utility ||
          got.utility > exact_batch.results[i].utility + got.error_bound +
                            1e-9) {
        return fail("tier answer outside its bound");
      }
    }
    const DegradedTierStats after = service.StatsFor("t")->degraded.value();
    if (after.lookups == 0 || after.cache_hits + after.sketch_answers == 0) {
      return fail("tier never consulted");
    }
    std::printf("degraded tier after selftest traffic:\n");
    PrintDegradedTier(after);
  }

  // Update-tier coverage: append past the published generation, check the
  // merged base+delta answers against a direct index over the grown
  // content, surface the per-text delta telemetry, then push the overlay
  // over its threshold and verify the compaction folds it.
  {
    UsiMultiServiceOptions service_options;
    service_options.threads = 1;
    service_options.delta_compact_threshold = 64;
    UsiMultiService service(service_options);
    WeightedString ws_copy = ws;
    service.SubmitText("t", std::move(ws_copy));
    if (service.WaitForText("t") != BuildState::kReady) {
      return fail("update tier build");
    }
    Text grown = ws.text();
    std::vector<double> weights = ws.weights();
    Rng rng(0x5EE9);
    const auto append_some = [&](index_t count) {
      for (index_t i = 0; i < count; ++i) {
        const Symbol c =
            ws.letter(static_cast<index_t>(rng.UniformBelow(ws.size())));
        const double w = 1.0 + static_cast<double>(rng.UniformBelow(4));
        if (service.AppendText("t", Text(1, c), std::vector<double>{w}) !=
            ServeStatus::kOk) {
          return false;
        }
        grown.push_back(c);
        weights.push_back(w);
      }
      return true;
    };
    if (!append_some(32)) return fail("append");
    std::optional<UsiTextStats> stats = service.StatsFor("t");
    if (!stats.has_value() || !stats->delta.has_value()) {
      return fail("delta stats absent");
    }
    std::printf("update tier with a live delta (32 appends):\n");
    PrintUpdateTier(*stats);
    const WeightedString current(grown, weights);
    const UsiIndex direct(current, UsiOptions{});
    for (index_t i = 0; i + 6 <= current.size(); i += 503) {
      const Text pattern = current.Fragment(i, 6);
      QueryResult got;
      if (service.Query("t", pattern, got) != ServeStatus::kOk) {
        return fail("merged query");
      }
      const QueryResult want = direct.Query(pattern);
      if (got.occurrences != want.occurrences || got.utility != want.utility) {
        return fail("merged answer parity");
      }
    }
    if (!append_some(32)) return fail("append to threshold");
    service.WaitForBuilds();
    stats = service.StatsFor("t");
    if (!stats.has_value() || stats->compactions == 0) {
      return fail("compaction never folded");
    }
    std::printf("update tier after compaction (%llu folded generations):\n",
                static_cast<unsigned long long>(stats->compactions));
    PrintUpdateTier(*stats);
  }
  std::printf("selftest OK\n");
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  if (mode == "info") {
    if (argc < 3) return Usage();
    bool deep = false;
    for (int i = 3; i < argc; ++i) {
      if (std::string(argv[i]) == "--deep") deep = true;
    }
    return Info(argv[2], deep);
  }
  if (mode == "convert") {
    if (argc < 4) return Usage();
    std::string dataset, text_file;
    index_t n = 0;
    u64 seed = 0;
    for (int i = 4; i + 1 < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--dataset") dataset = argv[++i];
      else if (flag == "--n") n = static_cast<index_t>(std::atoll(argv[++i]));
      else if (flag == "--text") text_file = argv[++i];
      else if (flag == "--seed") seed = static_cast<u64>(std::atoll(argv[++i]));
    }
    return Convert(argv[2], argv[3], dataset, n, text_file, seed);
  }
  if (mode == "failpoints") return Failpoints();
  if (mode == "selftest") return Selftest();
  return Usage();
}

}  // namespace
}  // namespace usi

int main(int argc, char** argv) { return usi::Main(argc, argv); }
