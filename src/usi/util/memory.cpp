#include "usi/util/memory.hpp"

#include <cstdio>
#include <cstring>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace usi {
namespace {

std::size_t ReadStatusFieldKb(const char* field) {
  std::FILE* file = std::fopen("/proc/self/status", "r");
  if (file == nullptr) return 0;
  char line[256];
  std::size_t value_kb = 0;
  const std::size_t field_len = std::strlen(field);
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    if (std::strncmp(line, field, field_len) == 0) {
      unsigned long long kb = 0;
      if (std::sscanf(line + field_len, ": %llu kB", &kb) == 1) {
        value_kb = static_cast<std::size_t>(kb);
      }
      break;
    }
  }
  std::fclose(file);
  return value_kb;
}

}  // namespace

std::size_t ReadPeakRssBytes() { return ReadStatusFieldKb("VmHWM") * 1024; }

std::size_t ReadCurrentRssBytes() { return ReadStatusFieldKb("VmRSS") * 1024; }

void ReleaseFreedHeap() {
#if defined(__GLIBC__)
  ::malloc_trim(0);
#endif
}

std::string FormatBytes(std::size_t bytes) {
  const char* units[] = {"B", "KB", "MB", "GB", "TB"};
  double value = static_cast<double>(bytes);
  int unit = 0;
  while (value >= 1024.0 && unit < 4) {
    value /= 1024.0;
    ++unit;
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.2f %s", value, units[unit]);
  return buffer;
}

}  // namespace usi
