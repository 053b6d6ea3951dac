// Thin POSIX file layer for the durability subsystem: append-only writes,
// explicit fsync, atomic publish via write-to-temp + rename.
//
// Everything durable goes through this file so the fsync discipline is
// auditable in one place:
//  * AppendFile::sync() is fdatasync (frame data + size, not timestamps);
//  * publish_file() fsyncs the temp file BEFORE the rename and the parent
//    directory AFTER it — the order that makes the rename itself durable;
//  * readers never see a half-written published file: a crash leaves either
//    the old name, a *.tmp orphan (ignored by directory scans), or the
//    complete new file.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <span>
#include <vector>

#include "util/error.hpp"

namespace larp::persist {

/// Thrown when the OS rejects a durability operation (open/write/fsync/
/// rename failures).  Distinct from CorruptData: this is an environment
/// problem, not an integrity one.
class IoError : public Error {
 public:
  using Error::Error;
};

/// An append-only file descriptor with explicit durability control.
class AppendFile {
 public:
  AppendFile() = default;
  ~AppendFile();

  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;
  AppendFile(AppendFile&& other) noexcept;
  AppendFile& operator=(AppendFile&& other) noexcept;

  /// Opens (creating if absent) for appending.  Throws IoError on failure.
  void open(const std::filesystem::path& path);
  [[nodiscard]] bool is_open() const noexcept { return fd_ >= 0; }
  [[nodiscard]] const std::filesystem::path& path() const noexcept { return path_; }

  /// Appends every byte (loops over partial writes).  Throws IoError.
  void append(std::span<const std::byte> data);

  /// Current file size in bytes.
  [[nodiscard]] std::uint64_t size() const;

  /// Truncates to `size` bytes (torn-tail repair).  Throws IoError.
  void truncate(std::uint64_t size);

  /// fdatasync: makes every appended byte durable.  Throws IoError.
  void sync();

  /// dup(2) of the open descriptor.  The duplicate shares the open file
  /// description, so `sync_handle(duplicate_handle())` from another thread
  /// makes every byte appended *so far* durable without blocking this
  /// object — even if it rotates to a different file in the meantime (the
  /// duplicate keeps the old description alive).  The caller owns the
  /// handle: pair with sync_handle()/close_handle().  Throws IoError.
  [[nodiscard]] int duplicate_handle() const;

  void close() noexcept;

 private:
  int fd_ = -1;
  std::filesystem::path path_;
};

/// fdatasync on a raw handle from AppendFile::duplicate_handle().  Throws
/// IoError (the handle stays open; the caller still close_handle()s it).
void sync_handle(int fd);

namespace testing {

/// Fault-injection seams for the durability syscalls.  Every write(2) issued
/// by this layer goes through the write hook and every fdatasync/fsync
/// through the sync hook, so tests can force short writes, EINTR storms, and
/// hard I/O failures at exact byte offsets — the conditions that become real
/// once a network front-end shares the process (signals, socket pressure).
/// A null hook (the default) means the real syscall.  Hooks are process-
/// global: install from a single thread, restore the previous value when
/// done, never leave one set across tests.
using WriteHook = ssize_t (*)(int fd, const void* buf, std::size_t count);
using SyncHook = int (*)(int fd);

/// Returns the previously installed hook.
WriteHook set_write_hook(WriteHook hook) noexcept;
SyncHook set_sync_hook(SyncHook hook) noexcept;

/// RAII install/restore for one test scope.
class FaultInjectionGuard {
 public:
  FaultInjectionGuard(WriteHook write, SyncHook sync) noexcept
      : prev_write_(set_write_hook(write)), prev_sync_(set_sync_hook(sync)) {}
  ~FaultInjectionGuard() {
    (void)set_write_hook(prev_write_);
    (void)set_sync_hook(prev_sync_);
  }
  FaultInjectionGuard(const FaultInjectionGuard&) = delete;
  FaultInjectionGuard& operator=(const FaultInjectionGuard&) = delete;

 private:
  WriteHook prev_write_;
  SyncHook prev_sync_;
};

}  // namespace testing

/// Closes a handle from AppendFile::duplicate_handle().
void close_handle(int fd) noexcept;

/// Reads a whole file into memory; throws IoError when unreadable.
[[nodiscard]] std::vector<std::byte> read_file(const std::filesystem::path& path);

/// A whole file mapped read-only, for readers of large files that are never
/// modified in place (published snapshots are only ever unlinked).  Open it,
/// check size(), then map(): the pages are mapped prefaulted and shared with
/// the page cache, so nothing is copied.  An unlink leaves the mapping
/// valid; a truncation by another process while mapped would make reads past
/// the new end fault (SIGBUS).
class MappedFile {
 public:
  MappedFile() = default;
  /// Opens `path` read-only and reads its size; throws IoError on failure.
  explicit MappedFile(const std::filesystem::path& path);
  ~MappedFile();

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Maps the whole file and closes the descriptor; returns the bytes, which
  /// stay valid until this object is destroyed or assigned.  Throws IoError.
  std::span<const std::byte> map();

 private:
  void release() noexcept;

  int fd_ = -1;
  void* data_ = nullptr;
  std::size_t size_ = 0;
  std::filesystem::path path_;
};

/// Atomically publishes `contents` at `path`: writes `path` + ".tmp", fsyncs
/// it, renames over `path`, and fsyncs the parent directory.  A crash at any
/// point leaves either no file, a stale ".tmp" orphan, or the complete file.
void publish_file(const std::filesystem::path& path,
                  std::span<const std::byte> contents);

/// publish_file() of the concatenation of `pieces`, appended in order, so a
/// caller that builds a file in parts need not join them into one buffer.
void publish_file_pieces(const std::filesystem::path& path,
                         std::span<const std::span<const std::byte>> pieces);

/// Renames `from` over `to` and fsyncs the parent directory, so the rename
/// survives a crash: publish_file()'s last two steps, for a caller that
/// wrote and fsynced `from` itself.
void rename_durably(const std::filesystem::path& from,
                    const std::filesystem::path& to);

/// fsyncs a directory so previously renamed/created entries are durable.
void sync_directory(const std::filesystem::path& dir);

/// mkdir -p with IoError on failure.
void ensure_directory(const std::filesystem::path& dir);

}  // namespace larp::persist
