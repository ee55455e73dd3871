#include "usi/util/mapped_file.hpp"

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <new>
#include <system_error>

#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace usi {
namespace {

// ---------------------------------------------------------------------------
// SIGBUS guard plumbing. Everything the signal handler touches is lock-free
// and async-signal-safe: a fixed array of atomic (begin, length) slots for
// the registered ranges, a thread-local pointer to the innermost guard
// frame, and a recovered-fault counter.

/// Upper bound on concurrently open mappings the guard can vouch for. A
/// mapping past the cap still serves (registration is best-effort) — it just
/// cannot be fault-recovered, the pre-guard behavior.
constexpr int kMaxGuardedRanges = 256;

struct GuardedRange {
  std::atomic<const u8*> begin{nullptr};
  std::atomic<std::size_t> length{0};
};

GuardedRange g_ranges[kMaxGuardedRanges];
std::atomic<int> g_registered{0};   ///< Live registrations (guard engaged?).
std::atomic<u64> g_recovered{0};    ///< Faults converted into Run() == false.
std::mutex g_register_mu;           ///< Serializes slot claim/release only.
std::once_flag g_handler_once;
struct sigaction g_previous_bus;    ///< Disposition to restore on re-raise.

/// The innermost active FaultJmpScope target of this thread (null = no
/// guarded region active; a fault then re-raises).
thread_local sigjmp_buf* t_fault_target = nullptr;

/// Async-signal-safe: is \p addr inside any registered mapped range?
bool AddrInGuardedRange(const void* addr) {
  const u8* p = static_cast<const u8*>(addr);
  for (int i = 0; i < kMaxGuardedRanges; ++i) {
    const u8* begin = g_ranges[i].begin.load(std::memory_order_acquire);
    if (begin == nullptr) continue;
    const std::size_t len = g_ranges[i].length.load(std::memory_order_acquire);
    if (p >= begin && p < begin + len) return true;
  }
  return false;
}

void SigbusHandler(int sig, siginfo_t* info, void* /*ucontext*/) {
  if (t_fault_target != nullptr && info != nullptr &&
      AddrInGuardedRange(info->si_addr)) {
    g_recovered.fetch_add(1, std::memory_order_relaxed);
    siglongjmp(*t_fault_target, 1);  // Unwinds to MappedFaultGuard::Run.
  }
  // Not ours (or no guard frame active): restore the previous disposition
  // and re-raise so the fault kills the process exactly as before.
  ::sigaction(sig, &g_previous_bus, nullptr);
  ::raise(sig);
}

void InstallSigbusHandler() {
  struct sigaction action {};
  action.sa_sigaction = &SigbusHandler;
  sigemptyset(&action.sa_mask);
  // SA_NODEFER: after siglongjmp out of the handler SIGBUS stays deliverable
  // (the handler never returns normally, so the kernel would otherwise keep
  // it blocked and turn the next fault into a kill).
  action.sa_flags = SA_SIGINFO | SA_NODEFER;
  ::sigaction(SIGBUS, &action, &g_previous_bus);
}

/// Claims a slot for [data, data+size); returns the slot index or -1 when
/// the table is full (mapping stays usable, just unguarded).
int RegisterRange(const u8* data, std::size_t size) {
  std::call_once(g_handler_once, InstallSigbusHandler);
  std::lock_guard<std::mutex> lock(g_register_mu);
  for (int i = 0; i < kMaxGuardedRanges; ++i) {
    if (g_ranges[i].begin.load(std::memory_order_relaxed) == nullptr) {
      g_ranges[i].length.store(size, std::memory_order_release);
      g_ranges[i].begin.store(data, std::memory_order_release);
      g_registered.fetch_add(1, std::memory_order_release);
      return i;
    }
  }
  return -1;
}

void UnregisterRange(const u8* data) {
  std::lock_guard<std::mutex> lock(g_register_mu);
  for (int i = 0; i < kMaxGuardedRanges; ++i) {
    if (g_ranges[i].begin.load(std::memory_order_relaxed) == data) {
      g_ranges[i].begin.store(nullptr, std::memory_order_release);
      g_ranges[i].length.store(0, std::memory_order_release);
      g_registered.fetch_sub(1, std::memory_order_release);
      return;
    }
  }
}

}  // namespace

namespace detail {

FaultJmpScope::FaultJmpScope() : prev_(t_fault_target) {
  t_fault_target = &buf_;
}

FaultJmpScope::~FaultJmpScope() {
  t_fault_target = static_cast<sigjmp_buf*>(prev_);
}

}  // namespace detail

bool MappedFaultGuard::Engaged() {
  return g_registered.load(std::memory_order_acquire) > 0;
}

u64 MappedFaultGuard::RecoveredFaults() {
  return g_recovered.load(std::memory_order_relaxed);
}

MappedFile::MappedFile(const u8* data, std::size_t size, bool mapped)
    : data_(data), size_(size), mapped_(mapped) {
  if (mapped_) RegisterRange(data_, size_);
}

std::unique_ptr<MappedFile> MappedFile::OpenReadOnly(const std::string& path,
                                                     int* out_errno) {
  if (out_errno != nullptr) *out_errno = 0;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (out_errno != nullptr) *out_errno = errno;
    return nullptr;
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    if (out_errno != nullptr) *out_errno = errno;
    ::close(fd);
    return nullptr;
  }
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    return nullptr;
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    // Nothing to map: the same empty image ReadIntoMemory yields, so a
    // caller refuses an empty file by its (absent) contents either way.
    ::close(fd);
    return std::unique_ptr<MappedFile>(
        new MappedFile(nullptr, 0, /*mapped=*/false));
  }
  void* const addr = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
  // The mapping holds its own reference to the file; the descriptor is not
  // needed past this point (and keeping it would leak fds per open index).
  ::close(fd);
  if (addr == MAP_FAILED) return nullptr;
  return std::unique_ptr<MappedFile>(
      new MappedFile(static_cast<const u8*>(addr), size, /*mapped=*/true));
}

std::unique_ptr<MappedFile> MappedFile::ReadIntoMemory(const std::string& path,
                                                       int* out_errno) {
  if (out_errno != nullptr) *out_errno = 0;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (out_errno != nullptr) *out_errno = errno;
    return nullptr;
  }
  struct FdCloser {
    int fd;
    ~FdCloser() { ::close(fd); }
  } closer{fd};
  struct stat st {};
  const int stat_errno = ::fstat(fd, &st) != 0 ? errno : 0;
  if (stat_errno != 0 || !S_ISREG(st.st_mode)) {
    if (out_errno != nullptr) *out_errno = stat_errno;
    return nullptr;
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  // The image owns the buffer as soon as it is allocated, so every exit
  // below frees it.
  std::unique_ptr<MappedFile> image(
      new MappedFile(nullptr, size, /*mapped=*/false));
  auto* const buffer = static_cast<u8*>(
      ::operator new[](size, std::align_val_t{kHeapImageAlign}));
  image->data_ = buffer;
  std::size_t done = 0;
  while (done < size) {
    const ssize_t got = ::read(fd, buffer + done, size - done);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;  // Error, or the file shrank under us.
    done += static_cast<std::size_t>(got);
  }
  return done == size ? std::move(image) : nullptr;
}

MappedFile::~MappedFile() {
  if (data_ == nullptr) return;
  if (!mapped_) {
    ::operator delete[](const_cast<u8*>(data_),
                        std::align_val_t{kHeapImageAlign});
    return;
  }
  UnregisterRange(data_);
  ::munmap(const_cast<u8*>(data_), size_);
}

void MappedFile::AdviseWillNeed() const {
  if (mapped_ && data_ != nullptr) {
    (void)::madvise(const_cast<u8*>(data_), size_, MADV_WILLNEED);
  }
}

void MappedFile::AdviseRandom() const {
  if (mapped_ && data_ != nullptr) {
    (void)::madvise(const_cast<u8*>(data_), size_, MADV_RANDOM);
  }
}

u64 Checksum64(const void* data, std::size_t bytes) {
  // FNV-1a over 64-bit lanes. Folding eight bytes per multiply keeps the
  // scan memory-bound; the splitmix avalanche at the end spreads the last
  // lanes' entropy across all 64 output bits (plain lane-FNV leaves the
  // final bytes underdiffused).
  constexpr u64 kPrime = 0x100000001B3ULL;
  const u8* p = static_cast<const u8*>(data);
  u64 h = 0xCBF29CE484222325ULL ^ bytes;
  while (bytes >= 8) {
    u64 lane;
    std::memcpy(&lane, p, 8);
    h = (h ^ lane) * kPrime;
    p += 8;
    bytes -= 8;
  }
  u64 tail = 0;
  if (bytes > 0) {
    std::memcpy(&tail, p, bytes);
    h = (h ^ tail) * kPrime;
  }
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ULL;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBULL;
  return h ^ (h >> 31);
}

std::string StageTempPath(const std::string& path) {
  return path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
}

namespace {

/// fsyncs one path (file or directory). Returns success.
bool FsyncPath(const char* path) {
  const int fd = ::open(path, O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

}  // namespace

bool PublishFile(const std::string& staged, const std::string& path) {
  // Sync the staged bytes BEFORE the rename: rename is atomic for the name,
  // but only a prior fsync guarantees the content the name will point at
  // survives a power cut.
  if (!FsyncPath(staged.c_str())) return false;
  if (std::rename(staged.c_str(), path.c_str()) != 0) return false;
  // Sync the directory entry too; without it the rename itself may be lost,
  // resurfacing the previous image. That outcome is still a complete image
  // (the protocol's invariant), so a failure here is reported but the
  // publish is not rolled back.
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  return FsyncPath(parent.empty() ? "." : parent.c_str());
}

int RemoveStaleTemps(const std::string& path) {
  const std::filesystem::path published(path);
  const std::string prefix = published.filename().string() + ".tmp.";
  const std::filesystem::path dir =
      published.parent_path().empty() ? "." : published.parent_path();
  int removed = 0;
  std::error_code ec;
  for (std::filesystem::directory_iterator it(dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.rfind(prefix, 0) == 0 &&
        std::filesystem::remove(it->path(), ec)) {
      ++removed;
    }
  }
  return removed;
}

}  // namespace usi
