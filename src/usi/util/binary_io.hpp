#ifndef USI_UTIL_BINARY_IO_HPP_
#define USI_UTIL_BINARY_IO_HPP_

/// \file binary_io.hpp
/// Minimal buffered binary writer over stdio, used to persist index images
/// (raw bytes plus zero padding to section offsets).

#include <algorithm>
#include <cstdio>
#include <string>

#include "usi/util/common.hpp"

namespace usi {

/// Buffered binary writer. All writes abort the stream on failure; finish
/// with Close(), whose result covers the final flush — stdio buffers
/// writes, so an out-of-space condition commonly surfaces only then, and a
/// caller that skipped Close() would report success on a truncated file.
class BinaryWriter {
 public:
  /// Opens \p path for writing (truncates).
  explicit BinaryWriter(const std::string& path)
      : file_(std::fopen(path.c_str(), "wb")) {}

  ~BinaryWriter() {
    if (file_ != nullptr) std::fclose(file_);
  }

  BinaryWriter(const BinaryWriter&) = delete;
  BinaryWriter& operator=(const BinaryWriter&) = delete;

  /// Whether every write so far succeeded. Not a completion check — only
  /// Close() observes the final buffer flush.
  bool ok() const { return file_ != nullptr && !failed_; }

  /// Flushes and closes, returning whether every write INCLUDING the final
  /// flush reached the filesystem. This is the authoritative success signal
  /// of a write session; ok() alone can still report true while the last
  /// buffered bytes are doomed (ENOSPC, quota, I/O error).
  bool Close() {
    if (file_ == nullptr) return false;
    failed_ = (std::fflush(file_) != 0) | failed_;
    failed_ = (std::fclose(file_) != 0) | failed_;
    file_ = nullptr;
    return !failed_;
  }

  /// Writes \p bytes raw bytes.
  void WriteRaw(const void* data, std::size_t bytes) {
    if (!ok() || bytes == 0) return;
    failed_ |= std::fwrite(data, 1, bytes, file_) != bytes;
    if (!failed_) bytes_written_ += bytes;
  }

  /// Pads with zero bytes up to absolute \p offset (section alignment).
  /// Writing past \p offset already is a caller bug.
  void PadTo(u64 offset) {
    if (!ok()) return;
    if (bytes_written_ > offset) {
      failed_ = true;
      return;
    }
    static constexpr char kZeros[64] = {};
    while (ok() && bytes_written_ < offset) {
      WriteRaw(kZeros, std::min<u64>(sizeof(kZeros), offset - bytes_written_));
    }
  }

  /// Bytes successfully written so far.
  u64 bytes_written() const { return bytes_written_; }

 private:
  std::FILE* file_;
  bool failed_ = false;
  u64 bytes_written_ = 0;
};

}  // namespace usi

#endif  // USI_UTIL_BINARY_IO_HPP_
