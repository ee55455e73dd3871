#ifndef USI_PERFBENCH_HARNESS_HPP_
#define USI_PERFBENCH_HARNESS_HPP_

/// \file harness.hpp
/// Shared plumbing of the reference benchmark: command line, the result
/// record, latency statistics, process/machine facts and the span tracer.
/// Nothing here reaches into the library's internals; the tracer only
/// times calls the workloads make into public entry points.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "usi/text/alphabet.hpp"
#include "usi/util/common.hpp"

namespace perfbench {

using usi::index_t;
using usi::u32;
using usi::u64;

/// Parsed command line: --workload NAME --seed N --seconds S --trace 0|1
/// --scratch DIR (DIR holds mapped images and the trace file; the runner
/// passes a directory inside its build tree).
struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch = ".";
};

/// Returns false (after printing why) on a malformed command line.
bool ParseArgs(int argc, char** argv, Args* args);

/// Pool width the workloads use: what nproc leaves after \p client_threads
/// and one spare core, capped at \p cap and at least 1. The spare core
/// absorbs the rest of the machine (the runner, kernel threads): when a
/// stray thread takes a core the run needs, a shard stalls a whole batch
/// and p99 jumps to milliseconds.
unsigned PoolWidth(unsigned client_threads, unsigned cap);

/// Pins the calling thread to CPU \p cpu modulo nproc (best effort).
/// Client and appender threads get CPUs of their own, so the scheduler
/// cannot wake one on another's CPU: with the churn appender on the
/// reader's CPU, the reader lost 28% of its qps.
void PinToCpu(unsigned cpu);

/// Monotonic nanoseconds.
inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Prints "perfbench: <what> <seconds since since_ns>" to stderr and
/// returns the current time, so calls chain phase to phase.
std::int64_t LogPhase(const char* what, std::int64_t since_ns);

/// Hypervisor steal time of the whole machine so far, in clock ticks
/// (/proc/stat); 0 where the kernel does not report it.
u64 StealTicks();

/// Whether \p ticks of steal over \p seconds is background level: at most
/// one tick plus two per second across all CPUs, about 1% of one CPU.
inline bool StealQuiet(u64 ticks, double seconds) {
  return static_cast<double>(ticks) <= 1.0 + 2.0 * seconds;
}

/// A closed-loop measurement of \p seconds cut into half-second windows.
/// On a shared host the hypervisor now and then takes CPU time from the
/// machine. A window in which it did (StealQuiet fails) is set aside, and
/// the metrics come from the quiet windows; when those cover less than half
/// the run, the least-stolen of the others fill up to half. The run's
/// length never depends on steal, so neither does the work it does
/// (appends, text growth, memory).
class WindowedRun {
 public:
  explicit WindowedRun(double seconds);

  /// Call after every batch with the loop's running totals: \p samples is
  /// the size of its latency vector. Returns false once the run is over.
  bool Continue(std::int64_t now_ns, std::size_t samples, u64 queries,
                u64 hits);

  /// Closes the last, partial window and selects the windows the metrics
  /// come from. Call once after the loop.
  void Finish(std::int64_t now_ns, std::size_t samples, u64 queries, u64 hits);

  /// Totals over the selected windows.
  double seconds() const { return Sum(&Window::seconds); }
  double queries() const { return Sum(&Window::queries); }
  double hits() const { return Sum(&Window::hits); }
  /// The entries of \p latency that fall in the selected windows.
  std::vector<double> Select(const std::vector<double>& latency) const;
  /// The \p p-th percentile of \p latency within each selected window.
  std::vector<double> WindowPercentiles(const std::vector<double>& latency,
                                        double p) const;
  /// Windows measured, and how many of them were set aside.
  std::size_t windows() const { return windows_.size(); }
  std::size_t set_aside() const;

 private:
  struct Window {
    std::size_t first = 0;
    std::size_t last = 0;
    double queries = 0;
    double hits = 0;
    double seconds = 0;
    double steal_per_s = 0;
    bool quiet = true;
    bool selected = false;
  };
  void Close(std::int64_t now_ns, std::size_t samples, u64 queries, u64 hits);
  double Sum(double Window::*field) const;

  double target_;
  std::int64_t start_ns_;
  std::int64_t window_start_ns_;
  u64 window_steal_;
  std::size_t mark_samples_ = 0;
  u64 mark_queries_ = 0;
  u64 mark_hits_ = 0;
  std::vector<Window> windows_;
};

/// Repeated set-up timings. The median prefers the set-ups during which
/// the hypervisor stole no CPU time (StealQuiet) and falls back to all.
class SetupTimes {
 public:
  /// Records one set-up of \p seconds that began at steal count \p steal.
  void Add(double seconds, u64 steal_before) {
    all_.push_back(seconds);
    if (StealQuiet(StealTicks() - steal_before, seconds)) {
      quiet_.push_back(seconds);
    }
  }
  double Median() const;
  std::size_t quiet() const { return quiet_.size(); }

  /// The resident set before the first set-up (ResetPeakRss), above which
  /// the service's peak is measured, and whether VmHWM was reset there.
  void SetRssBase(double mb, bool reset) {
    rss_base_mb_ = mb;
    rss_reset_ = reset;
  }
  double rss_base_mb() const { return rss_base_mb_; }
  bool rss_reset() const { return rss_reset_; }

 private:
  std::vector<double> all_;
  std::vector<double> quiet_;
  double rss_base_mb_ = 0;
  bool rss_reset_ = false;
};

/// Nearest-rank percentile (p in [0, 100]) of \p values; sorts a copy.
double Percentile(std::vector<double> values, double p);

/// Median of \p values (0 when empty).
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50);
}

/// Process peak resident set (VmHWM) in MiB; 0 where /proc is missing.
double PeakRssMb();

/// Starts measuring the memory a service adds to the harness: hands freed
/// heap back to the kernel, resets the process's VmHWM to its current
/// resident set (clear_refs 5) and returns that resident set in MiB.
/// \p reset_ok says whether the kernel took the reset; without it VmHWM
/// still holds the harness's own earlier peak.
double ResetPeakRss(bool* reset_ok);

/// FNV-1a over bytes, chained through \p h (the input-stream digest).
u64 Fnv1a(const void* data, std::size_t bytes, u64 h = 0xcbf29ce484222325ULL);

/// Drops \p path from the page cache (best effort), so the next open
/// faults it back in from storage.
void DropPageCache(const std::string& path);

/// The run's result: end-to-end or per-layer metrics, the correctness
/// verdict and the recorded inputs. Emit() prints the input record as one
/// JSON line and the result object as the final line of stdout.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// One recorded input fact (seed, sizes, thread counts, stream hash ...).
  void Input(const std::string& key, const std::string& value);
  void Input(const std::string& key, double value);
  /// Records a failed operation or oracle mismatch (counts into `failed`).
  void Fail(u64 count, const std::string& why);
  void Attempted(u64 count) { attempted_ += count; }
  /// No failed operation and no rejected self-check so far.
  bool ok() const { return failed_ == 0 && !rejected_; }
  /// Marks the run incorrect without an operation count (self-checks).
  void Reject(const std::string& why);
  void Emit() const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::vector<std::pair<std::string, Value>> metrics_;
  std::vector<std::pair<std::string, std::string>> inputs_;
  u64 attempted_ = 0;
  u64 failed_ = 0;
  bool rejected_ = false;
};

/// In-memory span recorder for the traced run. A span carries a name, its
/// start and end, the span that caused it and the batch it belongs to.
/// Capacity is reserved up front so recording never allocates while a
/// batch is being timed; spans past the reservation are not kept.
class Tracer {
 public:
  static constexpr int kNoParent = -1;

  explicit Tracer(std::size_t capacity) { spans_.reserve(capacity); }

  /// Records a timed interval and returns its id (-1 once the reservation
  /// is full).
  int Add(const char* name, int parent, u32 batch, std::int64_t start_ns,
          std::int64_t end_ns);

  /// Writes one JSON object per span to \p path; false on I/O failure.
  bool WriteJsonl(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
    u32 batch;
  };
  std::vector<Span> spans_;
};

/// Times one call as a span of \p tracer and returns its duration in ns.
template <typename Fn>
double Traced(Tracer& tracer, const char* name, int parent, u32 batch, Fn&& fn,
              int* id_out = nullptr) {
  const std::int64_t start = NowNs();
  fn();
  const std::int64_t end = NowNs();
  const int id = tracer.Add(name, parent, batch, start, end);
  if (id_out != nullptr) *id_out = id;
  return static_cast<double>(end - start);
}

/// Machine facts recorded with every run: nproc and the cache sizes the
/// kernel reports.
void RecordMachine(Report& report);

/// Quantizes weights to multiples of 1/8 so that utility sums are exact in
/// double arithmetic: a base + delta merge then equals a fresh index's sum
/// bit for bit, and the oracle comparison can demand exact equality.
std::vector<double> QuantizedWeights(const std::vector<double>& weights);

}  // namespace perfbench

#endif  // USI_PERFBENCH_HARNESS_HPP_
