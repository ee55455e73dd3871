#include "harness.hpp"

#include <fcntl.h>
#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

namespace perfbench {
namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// %.17g keeps every digit a double carries.
std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ReadFirstLine(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

}  // namespace

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--scratch") {
      args->scratch = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (args->workload.empty() || !(args->seconds > 0)) {
    std::fprintf(stderr, "perfbench: --workload and --seconds > 0 required\n");
    return false;
  }
  return true;
}

unsigned PoolWidth(unsigned client_threads, unsigned cap) {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const unsigned busy = client_threads + 1;
  return std::clamp(nproc > busy ? nproc - busy : 1u, 1u, cap);
}

void PinToCpu(unsigned cpu) {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % nproc, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

std::int64_t LogPhase(const char* what, std::int64_t since_ns) {
  const std::int64_t now = NowNs();
  std::fprintf(stderr, "perfbench: %s %.2f s\n", what,
               static_cast<double>(now - since_ns) * 1e-9);
  return now;
}

u64 StealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  u64 field[8] = {};
  in >> cpu;
  for (u64& f : field) in >> f;
  return cpu == "cpu" && in ? field[7] : 0;
}

namespace {
constexpr std::int64_t kWindowNs = 500'000'000;
}  // namespace

WindowedRun::WindowedRun(double seconds)
    : target_(seconds),
      start_ns_(NowNs()),
      window_start_ns_(start_ns_),
      window_steal_(StealTicks()) {}

bool WindowedRun::Continue(std::int64_t now_ns, std::size_t samples,
                           u64 queries, u64 hits) {
  if (now_ns - window_start_ns_ < kWindowNs) return true;
  Close(now_ns, samples, queries, hits);
  return static_cast<double>(now_ns - start_ns_) * 1e-9 < target_;
}

void WindowedRun::Finish(std::int64_t now_ns, std::size_t samples, u64 queries,
                         u64 hits) {
  if (samples > mark_samples_) Close(now_ns, samples, queries, hits);
  std::vector<std::size_t> order(windows_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return windows_[a].steal_per_s < windows_[b].steal_per_s;
                   });
  double chosen = 0;
  for (const std::size_t i : order) {
    Window& w = windows_[i];
    if (w.quiet || chosen < target_ / 2) {
      w.selected = true;
      chosen += w.seconds;
    }
  }
}

void WindowedRun::Close(std::int64_t now_ns, std::size_t samples, u64 queries,
                        u64 hits) {
  const u64 steal = StealTicks();
  Window w;
  w.first = mark_samples_;
  w.last = samples;
  w.queries = static_cast<double>(queries - mark_queries_);
  w.hits = static_cast<double>(hits - mark_hits_);
  w.seconds = static_cast<double>(now_ns - window_start_ns_) * 1e-9;
  w.quiet = StealQuiet(steal - window_steal_, w.seconds);
  w.steal_per_s = static_cast<double>(steal - window_steal_) / w.seconds;
  windows_.push_back(w);
  window_start_ns_ = now_ns;
  window_steal_ = steal;
  mark_samples_ = samples;
  mark_queries_ = queries;
  mark_hits_ = hits;
}

double WindowedRun::Sum(double Window::*field) const {
  double total = 0;
  for (const Window& w : windows_) {
    if (w.selected) total += w.*field;
  }
  return total;
}

std::vector<double> WindowedRun::Select(
    const std::vector<double>& latency) const {
  std::vector<double> out;
  for (const Window& w : windows_) {
    if (w.selected) {
      out.insert(out.end(), latency.begin() + static_cast<long>(w.first),
                 latency.begin() + static_cast<long>(w.last));
    }
  }
  return out;
}

std::vector<double> WindowedRun::WindowPercentiles(
    const std::vector<double>& latency, double p) const {
  std::vector<double> out;
  for (const Window& w : windows_) {
    if (w.selected && w.last > w.first) {
      out.push_back(Percentile(
          std::vector<double>(latency.begin() + static_cast<long>(w.first),
                              latency.begin() + static_cast<long>(w.last)),
          p));
    }
  }
  return out;
}

std::size_t WindowedRun::set_aside() const {
  std::size_t n = 0;
  for (const Window& w : windows_) n += !w.selected;
  return n;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  const std::size_t k = std::min(values.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  return values[k];
}

namespace {
/// A "Vm...:" line of /proc/self/status in MiB; 0 where it is missing.
double StatusMb(const char* field) {
  std::ifstream in("/proc/self/status");
  const std::string prefix = field;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::atof(line.c_str() + prefix.size()) / 1024.0;  // kB -> MiB.
    }
  }
  return 0;
}
}  // namespace

double PeakRssMb() { return StatusMb("VmHWM:"); }

double ResetPeakRss(bool* reset_ok) {
  ::malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  *reset_ok = static_cast<bool>(clear);
  return StatusMb("VmRSS:");
}

double SetupTimes::Median() const {
  return perfbench::Median(quiet_.empty() ? all_ : quiet_);
}

u64 Fnv1a(const void* data, std::size_t bytes, u64 h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

void DropPageCache(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  (void)::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
  ::close(fd);
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::Input(const std::string& key, const std::string& value) {
  std::string quoted(1, '"');
  quoted += JsonEscape(value);
  quoted += '"';
  inputs_.push_back({key, quoted});
}

void Report::Input(const std::string& key, double value) {
  inputs_.push_back({key, Num(value)});
}

void Report::Fail(u64 count, const std::string& why) {
  if (count == 0) return;
  failed_ += count;
  std::fprintf(stderr, "perfbench: FAILED %llu: %s\n",
               static_cast<unsigned long long>(count), why.c_str());
}

void Report::Reject(const std::string& why) {
  rejected_ = true;
  std::fprintf(stderr, "perfbench: REJECTED: %s\n", why.c_str());
}

void Report::Emit() const {
  std::printf("{\"record\": {");
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    std::printf("%s\"%s\": %s", i > 0 ? ", " : "",
                JsonEscape(inputs_[i].first).c_str(), inputs_[i].second.c_str());
  }
  std::printf("}}\n{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              ok() ? "true" : "false",
              static_cast<unsigned long long>(std::max<u64>(1, attempted_)),
              static_cast<unsigned long long>(failed_));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", JsonEscape(metrics_[i].first).c_str(),
                Num(metrics_[i].second.value).c_str(),
                JsonEscape(metrics_[i].second.unit).c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Tracer::Add(const char* name, int parent, u32 batch,
                std::int64_t start_ns, std::int64_t end_ns) {
  if (spans_.size() == spans_.capacity()) return -1;
  spans_.push_back({name, start_ns, end_ns, parent, batch});
  return static_cast<int>(spans_.size() - 1);
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d, \"batch\": %u}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.batch);
  }
  return std::fclose(out) == 0;
}

void RecordMachine(Report& report) {
  report.Input("nproc", std::thread::hardware_concurrency());
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    const std::string level = ReadFirstLine(dir + "/level");
    if (level.empty()) break;
    const std::string type = ReadFirstLine(dir + "/type");
    if (type == "Instruction") continue;
    report.Input("cache_L" + level + "_size", ReadFirstLine(dir + "/size"));
  }
}

std::vector<double> QuantizedWeights(const std::vector<double>& weights) {
  std::vector<double> out(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    out[i] = std::round(weights[i] * 8.0) / 8.0;
  }
  return out;
}

}  // namespace perfbench
